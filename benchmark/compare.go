package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords groups the end-to-end values of an -out file by workload
// and metric, one value a run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s failed verification", path, line, rec.Workload)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every workload and end-to-end metric, the
// median of the runs in each file, the ratio with A as its base, each
// side's spread between runs, the bound, and a verdict: worse when B's
// median is worse than A's by more than the bound; unresolved when the
// spread between runs is wider than the bound, unless every run of B
// reads better than every run of A; ok otherwise. It returns 1 when any
// row is worse.
func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRecords(pathB); err == nil {
			return compareRuns(sp, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareRuns(sp *spec, a, b map[string]map[string][]float64, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-20s %16s %16s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			lower := m.Better == "lower"
			worse := mb > ma*(1+m.Bound)
			if !lower {
				worse = mb < ma*(1-m.Bound)
			}
			verdict := "ok"
			switch {
			case (spread(va) > m.Bound || spread(vb) > m.Bound) && !allBetter(vb, va, lower):
				verdict = "unresolved"
			case worse:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-20s %16.6g %16.6g %9.4f %8.4f %8.4f %6.3f  %s (n=%d,%d)\n",
				wl.Name, m.Name, ma, mb, mb/ma, spread(va), spread(vb), m.Bound, verdict, len(va), len(vb))
		}
	}
	return code
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(b, a []float64, lower bool) bool {
	sa, sb := sorted(a), sorted(b)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}
