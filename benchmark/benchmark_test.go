package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

// TestSpecContract holds BENCHMARK.json to the shape its readers expect.
func TestSpecContract(t *testing.T) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the documented keys: unknown ones are refused.
	var strict struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string   `json:"name"`
			Unit   string   `json:"unit"`
			Better string   `json:"better"`
			Bound  *float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&strict); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("file is %d bytes", len(raw))
	}
	if n := len(strict.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(strict.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(strict.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if strict.RunSeconds < 1 || strict.RunSeconds > 60 {
		t.Errorf("run_seconds %d", strict.RunSeconds)
	}
	if len(strict.Paths) != 1 || strict.Paths[0] != "benchmark" {
		t.Errorf("paths %v", strict.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	better := func(n, b string) {
		if b != "lower" && b != "higher" {
			t.Errorf("%s: better %q", n, b)
		}
	}
	for _, w := range strict.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is empty, long or not one line", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("%s: declared but not implemented", w.Name)
		}
	}
	if len(workloads) != len(strict.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloads), len(strict.Workloads))
	}
	setup := false
	for _, m := range strict.EndToEnd {
		name(m.Name)
		better(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range strict.PerLayer {
		name(m.Name)
		better(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// TestLayersHaveMoves checks that every per-layer metric says which
// end-to-end metric it should move and where it should not.
func TestLayersHaveMoves(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers []struct{ Name, Moves, Control string }
	if err := json.Unmarshal(raw, &layers); err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(sp.PerLayer) {
		t.Fatalf("%d entries, %d per-layer metrics", len(layers), len(sp.PerLayer))
	}
	for i, l := range layers {
		if l.Name != sp.PerLayer[i].Name {
			t.Errorf("entry %d is %s, BENCHMARK.json has %s", i, l.Name, sp.PerLayer[i].Name)
		}
		if l.Moves == "" || l.Control == "" {
			t.Errorf("%s: moves or control missing", l.Name)
		}
	}
}

// TestWorkloadsAtSmallScale runs every workload, both runs and every
// probe, at a fiftieth of the operation counts, and checks that what the
// program reports and what BENCHMARK.json declares are the same set.
func TestWorkloadsAtSmallScale(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, w := range sp.Workloads {
		for trace, fn := range []func(*run){workloads[w.Name].e2e, workloads[w.Name].ledger} {
			r := newRun(runCfg{seed: 7, seconds: 0.02, scale: 50})
			start := time.Now()
			fn(r)
			if trace == 1 {
				for name := range r.metrics {
					reported[name] = true
				}
			}
			rec := r.finish(sp, w.Name, trace, time.Since(start))
			if !rec.Correct {
				t.Errorf("%s trace=%d: %v", w.Name, trace, rec.Problems)
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%d: %d attempted, %d failed", w.Name, trace, rec.Attempted, rec.Failed)
			}
			if trace == 1 && len(r.spans.spans) == 0 {
				t.Errorf("%s: the ledger run recorded no spans", w.Name)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if m.Name == "uksched.smp_c2_over_c1_host_ratio" && runtime.NumCPU() < 2 {
			continue // not measurable here; reads 0
		}
		if !reported[m.Name] {
			t.Errorf("%s is declared but no workload reports it", m.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v", got)
	}
	if d := summarise(make([]float64, 100)); d.TailPct != 90 || d.N != 100 {
		t.Errorf("tail of 100 samples: %+v", d)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	wl := sp.Workloads[0].Name
	side := func(host ...float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{wl: {"host_ns_per_op": host}}
	}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
		code int
	}{
		{"same", []float64{100, 101, 102}, []float64{101, 100, 102}, " ok ", 0},
		{"slower", []float64{100, 101, 102}, []float64{130, 131, 132}, " worse ", 1},
		{"noisy", []float64{100, 150, 200}, []float64{100, 160, 200}, " unresolved ", 0},
		{"noisy but all better", []float64{100, 150, 200}, []float64{50, 60, 90}, " ok ", 0},
	} {
		var out bytes.Buffer
		if code := compareRuns(sp, side(c.a...), side(c.b...), &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: code %d, output:\n%s", c.name, code, out.String())
		}
	}
}
