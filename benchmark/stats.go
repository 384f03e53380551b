package main

import (
	"math"
	"sort"
)

// dist summarises the samples behind one reported median.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the highest percentile that still has ten samples beyond
	// it and Tail its value; both are 0 below twenty samples.
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	N       int     `json:"n"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so
// that a spread printed here is the spread the acceptance check takes.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	s := sorted(v)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}

func summarise(v []float64) dist {
	d := dist{Median: median(v), N: len(v)}
	d.Q1, d.Q3 = quartiles(v)
	if n := len(v); n >= 20 {
		s := sorted(v)
		d.Tail = s[n-11]
		d.TailPct = 100 * float64(n-10) / float64(n)
	}
	return d
}

// quiet returns the second percentile of the samples, nearest rank — the
// fastest one when there are fewer than fifty. It estimates what an
// operation costs on an undisturbed core. On a shared host the median of
// identical batches measures the neighbours' duty cycle (it moved by 12 %
// between 10 s windows on the build host, the second percentile by 2 %),
// and interference only ever adds time, so the fast tail is the steady
// part of the distribution.
func quiet(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[int(0.02*float64(len(v)-1))]
}

// quietSum estimates the undisturbed cost of an operation that is timed
// in segments and repeated: reps[i][k] is the time of segment k in
// repeat i. Segment k does the same work in every repeat, so its quiet
// time is taken over the repeats, and the operation costs their sum.
func quietSum(reps [][]float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	total := 0.0
	for k := range reps[0] {
		var col []float64
		for _, rep := range reps {
			if k < len(rep) {
				col = append(col, rep[k])
			}
		}
		total += quiet(col)
	}
	return total
}

// percentileU64 is the nearest-rank percentile siege uses for its own
// latency figures, so a number computed here matches one it reports.
func percentileU64(sortedAsc []uint64, p float64) uint64 {
	if len(sortedAsc) == 0 {
		return 0
	}
	i := int(p * float64(len(sortedAsc)))
	if i >= len(sortedAsc) {
		i = len(sortedAsc) - 1
	}
	return sortedAsc[i]
}
