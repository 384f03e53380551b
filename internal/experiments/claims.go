package experiments

import (
	"fmt"
	"math"
	"slices"
)

// Results holds the rows of the figures the claims read; a figure that was
// not drawn is nil.
type Results struct {
	Fig5, Fig8     *CallGraph
	Fig6           []Fig6Row
	Fig7           []Fig7Row
	Fig10a, Fig10b []Fig10Row
}

// Claim is one number or ordering the paper's evaluation states (§6.3–6.5),
// how a run measures it, and the gate the shape tests hold the reproduction to.
type Claim struct {
	Fig      string // the cubicle-bench -fig whose rows it reads
	Quantity string
	Paper    string // the paper's value, as it states it or as its numbers give it
	Measure  func(Results) float64
	Gate     *Gate  // nil: reported, never gated
	Reason   string // why the reproduction deviates from the paper, where it does
}

// Gate is the band or ordering a measured value must meet, as printed and
// as checked (NaN meets none).
type Gate struct {
	Text  string
	Holds func(float64) bool
}

// band, atLeast and above gate lo ≤ v ≤ hi, lo ≤ v and lo < v.
func band(lo, hi float64) *Gate {
	return &Gate{fmt.Sprintf("[%g, %g]", lo, hi), func(v float64) bool { return lo <= v && v <= hi }}
}
func atLeast(lo float64) *Gate {
	return &Gate{fmt.Sprintf("≥ %g", lo), func(v float64) bool { return lo <= v }}
}
func above(lo float64) *Gate {
	return &Gate{fmt.Sprintf("> %g", lo), func(v float64) bool { return lo < v }}
}

// Claims are the paper's numbers for Figures 5 to 8 and 10, in the order
// cubicle-bench prints them. Each ordering the paper shows is a least step
// or a ratio; an ordering of two rows puts the larger over the smaller. An
// edge the paper draws in a call graph is a count of at least one call.
var Claims = []Claim{
	{Fig: "6", Quantity: "group A mean slowdown", Paper: "≈1.8", Measure: groupStep(true, 0, 3), Gate: band(1.3, 2.8)},
	{Fig: "6", Quantity: "group B mean slowdown", Paper: "≈8", Measure: groupStep(false, 0, 3), Gate: band(4.5, 11)},
	{Fig: "6", Quantity: "group B mean over group A mean", Paper: "4.4", Measure: ratio(groupStep(false, 0, 3), groupStep(true, 0, 3)), Gate: above(1.8)},
	{Fig: "6", Quantity: "group A step: trampolines", Paper: "1.02", Measure: groupStep(true, 0, 1)},
	{Fig: "6", Quantity: "group A step: MPK", Paper: "1.50", Measure: groupStep(true, 1, 2)},
	{Fig: "6", Quantity: "group A step: windows", Paper: "1.20", Measure: groupStep(true, 2, 3),
		Reason: "the ports open and close fewer windows than the paper's"},
	{Fig: "6", Quantity: "group B step: trampolines", Paper: "1.17", Measure: groupStep(false, 0, 1)},
	{Fig: "6", Quantity: "group B step: MPK", Paper: "4", Measure: groupStep(false, 1, 2)},
	{Fig: "6", Quantity: "group B step: windows", Paper: "1.2", Measure: groupStep(false, 2, 3)},
	{Fig: "6", Quantity: "group A MPK step over trampolines step", Paper: "1.47", Measure: ratio(groupStep(true, 1, 2), groupStep(true, 0, 1)), Gate: above(1)},
	{Fig: "6", Quantity: "group B MPK step over trampolines step", Paper: "3.42", Measure: ratio(groupStep(false, 1, 2), groupStep(false, 0, 1)), Gate: above(1)},
	{Fig: "6", Quantity: "least step up the ladder, any query", Paper: "≥ 1", Measure: ladderStep, Gate: atLeast(1)},

	{Fig: "7", Quantity: "1 KiB baseline latency (ms)", Paper: "5–6", Measure: fig7At(1<<10, baselineMs), Gate: band(4.0, 7.0)},
	{Fig: "7", Quantity: "1 KiB ratio", Paper: "≈1.15", Measure: fig7At(1<<10, Fig7Row.Ratio), Gate: band(1.0, 1.25),
		Reason: "the 5 ms request floor, equal on both sides, hides small-file overhead"},
	{Fig: "7", Quantity: "64 KiB ratio", Paper: "≈1.15", Measure: fig7At(64<<10, Fig7Row.Ratio), Gate: band(1.05, 1.5)},
	{Fig: "7", Quantity: "8 MiB ratio", Paper: "≈2", Measure: fig7At(8<<20, Fig7Row.Ratio), Gate: band(1.7, 3.0)},
	{Fig: "7", Quantity: "least baseline latency step, any size", Paper: "≥ 1", Measure: fig7Step(baselineMs, Fig7Sizes...), Gate: atLeast(1)},
	{Fig: "7", Quantity: "least ratio step, 1 KiB → 64 KiB → 8 MiB", Paper: "≈1", Measure: fig7Step(Fig7Row.Ratio, 1<<10, 64<<10, 8<<20), Gate: above(1)},

	{Fig: "5", Quantity: "NGINX → LWIP", Paper: "drawn", Measure: edge("5", "NGINX", "LWIP"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "NGINX → VFSCORE", Paper: "drawn", Measure: edge("5", "NGINX", "VFSCORE"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "NGINX → TIME", Paper: "drawn", Measure: edge("5", "NGINX", "TIME"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "NGINX → PLAT", Paper: "drawn", Measure: edge("5", "NGINX", "PLAT"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "LWIP → NETDEV", Paper: "drawn", Measure: edge("5", "LWIP", "NETDEV"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "VFSCORE → RAMFS", Paper: "drawn", Measure: edge("5", "VFSCORE", "RAMFS"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "NGINX → ALLOC", Paper: "drawn", Measure: edge("5", "NGINX", "ALLOC"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "LWIP → ALLOC", Paper: "drawn", Measure: edge("5", "LWIP", "ALLOC"), Gate: atLeast(1)},
	{Fig: "5", Quantity: "ALLOC's share of the calls", Paper: "hot", Measure: allocShare, Gate: atLeast(0.1)},

	{Fig: "8", Quantity: "SQLITE → VFSCORE", Paper: "drawn", Measure: edge("8", "SQLITE", "VFSCORE"), Gate: atLeast(1)},
	{Fig: "8", Quantity: "VFSCORE → RAMFS", Paper: "drawn", Measure: edge("8", "VFSCORE", "RAMFS"), Gate: atLeast(1)},
	{Fig: "8", Quantity: "SQLITE → TIME", Paper: "drawn", Measure: edge("8", "SQLITE", "TIME"), Gate: atLeast(1)},
	{Fig: "8", Quantity: "SQLITE → PLAT", Paper: "drawn", Measure: edge("8", "SQLITE", "PLAT"), Gate: atLeast(1)},
	{Fig: "8", Quantity: "SQLITE → ALLOC", Paper: "drawn", Measure: edge("8", "SQLITE", "ALLOC"), Gate: atLeast(1)},
	{Fig: "8", Quantity: "BOOT → PLAT", Paper: "drawn", Measure: edge("8", "BOOT", "PLAT"), Gate: atLeast(1)},
	{Fig: "8", Quantity: "SQLITE → VFSCORE over SQLITE → ALLOC", Paper: "≫ 1",
		Measure: ratio(edge("8", "SQLITE", "VFSCORE"), edge("8", "SQLITE", "ALLOC")), Gate: above(1)},

	{Fig: "10a", Quantity: "Linux", Paper: "1.0", Measure: slowdown("Linux")},
	{Fig: "10a", Quantity: "Unikraft", Paper: "2.8", Measure: slowdown("Unikraft"), Gate: band(2.0, 3.6)},
	{Fig: "10a", Quantity: "Genode-3", Paper: "1.4", Measure: slowdown("Genode-3"), Gate: band(1.1, 2.0)},
	{Fig: "10a", Quantity: "Genode-4", Paper: "29", Measure: slowdown("Genode-4"), Gate: band(18, 45)},
	{Fig: "10a", Quantity: "CubicleOS-3", Paper: "4.1", Measure: slowdown("CubicleOS-3"), Gate: band(3.0, 8.5),
		Reason: "one trap cost cannot land both group B and CubicleOS-3/4"},
	{Fig: "10a", Quantity: "CubicleOS-4", Paper: "5.4", Measure: slowdown("CubicleOS-4"), Gate: band(4.0, 11)},
	{Fig: "10a", Quantity: "Unikraft over Genode-3", Paper: "2.0", Measure: ratio(slowdown("Unikraft"), slowdown("Genode-3")), Gate: above(1)},
	{Fig: "10a", Quantity: "Genode-4 over CubicleOS-4", Paper: "5.37", Measure: ratio(slowdown("Genode-4"), slowdown("CubicleOS-4")), Gate: above(1)},
	{Fig: "10a", Quantity: "CubicleOS-4 over CubicleOS-3", Paper: "1.32", Measure: ratio(slowdown("CubicleOS-4"), slowdown("CubicleOS-3")), Gate: band(1.0, 1.6)},

	{Fig: "10b", Quantity: "seL4", Paper: "7.5", Measure: slowdown("SeL4"), Gate: band(5.5, 10)},
	{Fig: "10b", Quantity: "Fiasco.OC", Paper: "4.5", Measure: slowdown("Fiasco.OC"), Gate: band(3.5, 6)},
	{Fig: "10b", Quantity: "NOVA", Paper: "4.7", Measure: slowdown("NOVA"), Gate: band(3.5, 6.5)},
	{Fig: "10b", Quantity: "Genode/Linux", Paper: "≈20", Measure: slowdown("Genode/Linux"), Gate: band(10, 28),
		Reason: "≈20 is 10a's 29/1.4, a ratio of means; this row is a mean of ratios"},
	{Fig: "10b", Quantity: "CubicleOS", Paper: "1.4", Measure: slowdown("CubicleOS"), Gate: band(1.0, 1.6)},
	{Fig: "10b", Quantity: "least other kernel", Paper: "> 4", Measure: leastOtherKernel, Gate: atLeast(4.0)},
	{Fig: "10b", Quantity: "Fiasco.OC over CubicleOS", Paper: "3.2", Measure: ratio(slowdown("Fiasco.OC"), slowdown("CubicleOS")), Gate: atLeast(2.5)},
}

// groupStep measures the mean, over group A's queries or group B's, of rung
// hi's cycles over rung lo's.
func groupStep(groupA bool, lo, hi int) func(Results) float64 {
	return func(r Results) float64 {
		var sum, n float64
		for _, q := range r.Fig6 {
			if q.GroupA == groupA {
				sum += float64(q.Cycles[hi]) / float64(q.Cycles[lo])
				n++
			}
		}
		return sum / n
	}
}

// ladderStep is the least ratio of a query's cycles on one rung to its
// cycles on the rung below.
func ladderStep(r Results) float64 {
	least := math.Inf(1)
	for _, q := range r.Fig6 {
		for i := 1; i < len(q.Cycles); i++ {
			least = min(least, float64(q.Cycles[i])/float64(q.Cycles[i-1]))
		}
	}
	return least
}

// edge measures the calls from → to in Figure 5's graph or Figure 8's.
func edge(fig, from, to string) func(Results) float64 {
	return func(r Results) float64 {
		return float64(map[string]*CallGraph{"5": r.Fig5, "8": r.Fig8}[fig].Count(from, to))
	}
}

// allocShare is ALLOC's share of the calls in Figure 5's window: it
// serves every component's allocations there.
func allocShare(r Results) float64 {
	var in, all uint64
	for _, e := range r.Fig5.Edges {
		all += e.Count
		if e.To == "ALLOC" {
			in += e.Count
		}
	}
	return float64(in) / float64(all)
}

func baselineMs(r Fig7Row) float64 { return r.BaselineMs }

// fig7At measures f of Figure 7's row for one of Fig7Sizes.
func fig7At(size int, f func(Fig7Row) float64) func(Results) float64 {
	i := slices.Index(Fig7Sizes, size)
	return func(r Results) float64 { return f(r.Fig7[i]) }
}

// fig7Step measures the least ratio of f at one of sizes to f at the size
// before it.
func fig7Step(f func(Fig7Row) float64, sizes ...int) func(Results) float64 {
	return func(r Results) float64 {
		least := math.Inf(1)
		for i := 1; i < len(sizes); i++ {
			least = min(least, fig7At(sizes[i], f)(r)/fig7At(sizes[i-1], f)(r))
		}
		return least
	}
}

// slowdown measures the Figure 10a or 10b row of that name; no name is in
// both.
func slowdown(name string) func(Results) float64 {
	return func(r Results) float64 {
		rows := slices.Concat(r.Fig10a, r.Fig10b)
		return rows[slices.IndexFunc(rows, func(row Fig10Row) bool { return row.Name == name })].Slowdown
	}
}

// leastOtherKernel is the least Figure 10b slowdown of a kernel other than
// CubicleOS.
func leastOtherKernel(r Results) float64 {
	least := math.Inf(1)
	for _, row := range r.Fig10b {
		if row.Name != "CubicleOS" {
			least = min(least, row.Slowdown)
		}
	}
	return least
}

// ratio measures num over den.
func ratio(num, den func(Results) float64) func(Results) float64 {
	return func(r Results) float64 { return num(r) / den(r) }
}
