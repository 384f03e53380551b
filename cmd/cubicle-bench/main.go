// Command cubicle-bench regenerates the tables and figures of the
// CubicleOS paper's evaluation (§6) as text rows and series.
//
// Usage:
//
//	cubicle-bench -fig 6|7|5|8|9|10a|10b|all   # one figure, or each in this order
//
// Each figure prints under its title. Figures 5 to 8, 10a and 10b end
// with their rows of experiments.Claims: the paper's value, the measured
// one, the gate and whether it holds.
//
// The -size flag scales the speedtest1 workload (the paper's --stat; 100
// is the default scale). A -fig no run draws, a -size below 1 or a
// -requests below 1 is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"cubicleos/internal/experiments"
)

// figure is one -fig value: the title its section prints and the function
// that writes its rows and its claim lines.
type figure struct {
	name, title string
	draw        func(w io.Writer, d *drawing) error
}

// drawing is what the figures of one run are drawn at — a speedtest1 scale
// and a Figure 5 window — and the speedtest1 runs made so far, which the
// figures reading one deployment share.
type drawing struct {
	size, requests int
	runs           experiments.Runs
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
	d := &drawing{*size, *requests, experiments.Runs{}}
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		fmt.Printf("==== %s ====\n", f.title)
		if err := f.draw(os.Stdout, d); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.title, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// column pads a claim's quantity to the first column of a claim line;
// paper, measured, gate and status follow it.
func column(quantity string) string { return fmt.Sprintf("%-46s ", quantity) }

const claimRest = "%-7s %-9s %-11s %s"

// writeClaims writes a header and a line for each claim of figure fig,
// measured on r; a claim that deviates from the paper ends with the reason.
func writeClaims(w io.Writer, fig string, r experiments.Results) {
	fmt.Fprintln(w, column("Figure "+fig)+fmt.Sprintf(claimRest, "paper", "measured", "gate", "status"))
	for _, c := range experiments.Claims {
		if c.Fig != fig {
			continue
		}
		v, gate, status := c.Measure(r), "—", "reported"
		if c.Gate != nil {
			gate, status = c.Gate.Text, "fails"
			if c.Gate.Holds(v) {
				status = "holds"
			}
		}
		line := column(c.Quantity) + fmt.Sprintf(claimRest, c.Paper, fmt.Sprintf("%.2f", v), gate, status)
		if c.Reason != "" {
			line += "  deviates: " + c.Reason
		}
		fmt.Fprintln(w, line)
	}
}

func fig6(w io.Writer, d *drawing) error {
	rows, err := d.runs.Fig6(d.size)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-5s %14s %14s %14s %14s %8s\n",
		"query", "group", "unikraft", "no-mpk", "no-acl", "cubicleos", "ratio")
	for _, r := range rows {
		grp := "B"
		if r.GroupA {
			grp = "A"
		}
		fmt.Fprintf(w, "%-6d %-5s %14d %14d %14d %14d %8.2f\n",
			r.ID, grp, r.Cycles[0], r.Cycles[1], r.Cycles[2], r.Cycles[3], r.Ratio())
	}
	writeClaims(w, "6", experiments.Results{Fig6: rows})
	return nil
}

func fig7(w io.Writer, _ *drawing) error {
	rows, err := experiments.Fig7()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%12s %14s %14s %8s\n", "size (B)", "baseline (ms)", "cubicleos (ms)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d %14.2f %14.2f %8.2f\n", r.Size, r.BaselineMs, r.CubicleOSMs, r.Ratio())
	}
	writeClaims(w, "7", experiments.Results{Fig7: rows})
	return nil
}

func fig5(w io.Writer, d *drawing) error {
	g, err := experiments.Fig5(d.requests)
	if err == nil {
		fmt.Fprint(w, g.String())
		writeClaims(w, "5", experiments.Results{Fig5: g})
	}
	return err
}

func fig8(w io.Writer, d *drawing) error {
	g, err := d.runs.Fig8(d.size)
	if err == nil {
		fmt.Fprint(w, g.String())
		writeClaims(w, "8", experiments.Results{Fig8: g})
	}
	return err
}

func fig9(w io.Writer, _ *drawing) error {
	fmt.Fprint(w, `(a) 3 components                 (b) 4 components

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

func fig10a(w io.Writer, d *drawing) error {
	rows, err := d.runs.Fig10a(d.size)
	return writeSlowdowns(w, "10a", rows, experiments.Results{Fig10a: rows}, err)
}

func fig10b(w io.Writer, d *drawing) error {
	rows, err := d.runs.Fig10b(d.size)
	return writeSlowdowns(w, "10b", rows, experiments.Results{Fig10b: rows}, err)
}

// writeSlowdowns writes a Figure 10 plot's rows and, measured on r, its
// claim lines, unless err.
func writeSlowdowns(w io.Writer, fig string, rows []experiments.Fig10Row, r experiments.Results, err error) error {
	if err == nil {
		for _, row := range rows {
			fmt.Fprintf(w, "%-14s %6.2fx\n", row.Name, row.Slowdown)
		}
		writeClaims(w, fig, r)
	}
	return err
}
