// Command cubicle-bench regenerates the tables and figures of the
// CubicleOS paper's evaluation (§6) as text rows and series.
//
// Usage:
//
//	cubicle-bench -fig 6          # SQLite query times × 4 configurations
//	cubicle-bench -fig 7          # NGINX latency vs transfer size
//	cubicle-bench -fig 5          # NGINX cubicle call-count graph
//	cubicle-bench -fig 8          # SQLite cubicle call-count graph
//	cubicle-bench -fig 9          # SQLite partitioning configurations
//	cubicle-bench -fig 10a        # slowdown vs Linux
//	cubicle-bench -fig 10b        # 4-vs-3 compartment slowdown per kernel
//	cubicle-bench -fig all        # everything
//
// The -size flag scales the speedtest1 workload (the paper's --stat; 100
// is the default scale). A -fig no run draws, a -size below 1 or a
// -requests below 1 is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"cubicleos/internal/experiments"
)

// figure is one -fig value: the title its section prints and the function
// that prints its rows at a speedtest1 scale and a Figure 5 window.
type figure struct {
	name, title string
	draw        func(size, requests int) error
}

// figures are the -fig values that draw one figure, in the order -fig all
// draws them.
var figures = []figure{
	{"6", "Figure 6: SQLite query execution times (cycles)", fig6},
	{"7", "Figure 7: NGINX download latency vs transfer size", fig7},
	{"5", "Figure 5: NGINX cubicle call counts (measurement window)", fig5},
	{"8", "Figure 8: SQLite cubicle call counts (including boot)", fig8},
	{"9", "Figure 9: partitioning configurations", fig9},
	{"10a", "Figure 10a: speedtest1 slowdown vs Linux", fig10a},
	{"10b", "Figure 10b: slowdown of separating RAMFS (4 vs 3 compartments)", fig10b},
}

// figureNames lists the -fig values that draw one figure.
func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

// checkFlags refuses a -fig that names no figure, a -size that names no
// workload and a -requests that leaves Figure 5's window empty, before
// anything boots.
func checkFlags(fig string, size, requests int) error {
	switch {
	case fig != "all" && !slices.ContainsFunc(figures, func(f figure) bool { return f.name == fig }):
		return fmt.Errorf("-fig %s: want one of %s or all", fig, figureNames())
	case size < 1:
		return fmt.Errorf("-size %d: want a scale of 1 or more", size)
	case requests < 1:
		return fmt.Errorf("-requests %d: want 1 or more", requests)
	}
	return nil
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+figureNames()+", all")
	size := flag.Int("size", 100, "speedtest1 scale (--stat equivalent)")
	requests := flag.Int("requests", 8, "requests for the Figure 5 measurement window")
	flag.Parse()
	if err := checkFlags(*fig, *size, *requests); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		fmt.Printf("==== %s ====\n", f.title)
		if err := f.draw(*size, *requests); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.title, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func fig6(size, _ int) error {
	rows, err := experiments.Fig6(size)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-5s %14s %14s %14s %14s %8s\n",
		"query", "group", "unikraft", "no-mpk", "no-acl", "cubicleos", "ratio")
	for _, r := range rows {
		grp := "B"
		if r.GroupA {
			grp = "A"
		}
		fmt.Printf("%-6d %-5s %14d %14d %14d %14d %8.2f\n",
			r.ID, grp, r.Unikraft, r.NoMPK, r.NoACL, r.Full, r.Ratio())
	}
	s := experiments.Summarise(rows)
	fmt.Printf("\ngroup A mean slowdown %.2fx (paper: ~1.8x); steps: trampolines %+.0f%%, MPK %+.0f%%, windows %+.0f%%\n",
		s.GroupASlowdown, (s.ATramp-1)*100, (s.AMPK-1)*100, (s.AACL-1)*100)
	fmt.Printf("group B mean slowdown %.2fx (paper: ~8x); steps: trampolines %+.0f%%, MPK %+.0f%%, windows %+.0f%%\n",
		s.GroupBSlowdown, (s.BTramp-1)*100, (s.BMPK-1)*100, (s.BACL-1)*100)
	return nil
}

func fig7(_, _ int) error {
	rows, err := experiments.Fig7()
	if err != nil {
		return err
	}
	fmt.Printf("%12s %14s %14s %8s\n", "size (B)", "baseline (ms)", "cubicleos (ms)", "ratio")
	for _, r := range rows {
		fmt.Printf("%12d %14.2f %14.2f %8.2f\n", r.Size, r.BaselineMs, r.CubicleOSMs, r.Ratio())
	}
	return nil
}

func fig5(_, requests int) error {
	g, err := experiments.Fig5(requests)
	if err != nil {
		return err
	}
	fmt.Print(g.String())
	return nil
}

func fig8(size, _ int) error {
	g, err := experiments.Fig8(size)
	if err != nil {
		return err
	}
	fmt.Print(g.String())
	return nil
}

func fig9(_, _ int) error {
	fmt.Print(`(a) 3 components                 (b) 4 components

  [ SQLITE ]   [ TIMER ]          [ SQLITE ]   [ TIMER ]
       \          /                    \          /
  [ CORE + RAMFS ]                 [   CORE   ]--[ RAMFS ]
       |                               |
  [  KERNEL   ]                    [  KERNEL  ]

CORE combines the PLAT, VFSCORE, ALLOC and BOOT cubicles (§6.5).
On CubicleOS the KERNEL row is the trusted monitor; on the microkernel
baselines it is the respective kernel with message-based IPC.
`)
	return nil
}

func fig10a(size, _ int) error {
	rows, err := experiments.Fig10a(size)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-14s %6.2fx\n", r.System, r.Slowdown)
	}
	return nil
}

func fig10b(size, _ int) error {
	rows, err := experiments.Fig10b(size)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-14s %6.2fx\n", r.Kernel, r.Slowdown)
	}
	return nil
}
