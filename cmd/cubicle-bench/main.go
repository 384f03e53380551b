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
// is the default scale).
package main

import (
	"flag"
	"fmt"
	"os"

	"cubicleos/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 9, 10a, 10b, all")
	size := flag.Int("size", 100, "speedtest1 scale (--stat equivalent)")
	requests := flag.Int("requests", 8, "requests for the Figure 5 measurement window")
	flag.Parse()

	run := func(name string, fn func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("6") {
		run("Figure 6: SQLite query execution times (cycles)", func() error {
			rows, err := experiments.Fig6(*size)
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
		})
	}
	if want("7") {
		run("Figure 7: NGINX download latency vs transfer size", func() error {
			rows, err := experiments.Fig7()
			if err != nil {
				return err
			}
			fmt.Printf("%12s %14s %14s %8s\n", "size (B)", "baseline (ms)", "cubicleos (ms)", "ratio")
			for _, r := range rows {
				fmt.Printf("%12d %14.2f %14.2f %8.2f\n", r.Size, r.BaselineMs, r.CubicleOSMs, r.Ratio())
			}
			return nil
		})
	}
	if want("5") {
		run("Figure 5: NGINX cubicle call counts (measurement window)", func() error {
			g, err := experiments.Fig5(*requests)
			if err != nil {
				return err
			}
			fmt.Print(g.String())
			return nil
		})
	}
	if want("8") {
		run("Figure 8: SQLite cubicle call counts (including boot)", func() error {
			g, err := experiments.Fig8(*size)
			if err != nil {
				return err
			}
			fmt.Print(g.String())
			return nil
		})
	}
	if want("9") {
		run("Figure 9: partitioning configurations", func() error {
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
		})
	}
	if want("10a") {
		run("Figure 10a: speedtest1 slowdown vs Linux", func() error {
			rows, err := experiments.Fig10a(*size)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Printf("%-14s %6.2fx\n", r.System, r.Slowdown)
			}
			return nil
		})
	}
	if want("10b") {
		run("Figure 10b: slowdown of separating RAMFS (4 vs 3 compartments)", func() error {
			rows, err := experiments.Fig10b(*size)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Printf("%-14s %6.2fx\n", r.Kernel, r.Slowdown)
			}
			return nil
		})
	}
}
