// Command benchmark is the repository's yardstick: five workloads over
// the simulated CubicleOS deployments, measured on both clocks. A run
// with -trace 0 reports the end-to-end metrics of one workload; a run
// with -trace 1 is the ledger run, which attributes cost to layers from
// outside the program — timing calls into each module's public
// functions, reading Monitor.Stats deltas and the per-cubicle cycle
// profiler — and runs the micro-probes. Metric names, units and bounds
// come from BENCHMARK.json in the working directory; README.md beside
// this file defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// spec is what the program reads of BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCfg is what the command line gives one run.
type runCfg struct {
	seed    int64
	seconds float64
	// scale divides every fixed operation count: 1 for a real run, a few
	// hundred for the package test.
	scale int
}

// run accumulates what one run of one workload reports.
type run struct {
	cfg       runCfg
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	dists     map[string]dist
	spans     *spanLog
}

func newRun(cfg runCfg) *run {
	if cfg.scale < 1 {
		cfg.scale = 1
	}
	return &run{cfg: cfg, metrics: map[string]float64{}, dists: map[string]dist{}, spans: newSpanLog()}
}

func (r *run) put(name string, v float64) { r.metrics[name] = v }

// putSampled reports an estimate over samples — median, or quiet for
// host times (see quiet) — and keeps the samples' summary.
func (r *run) putSampled(name string, estimate func([]float64) float64, samples []float64) {
	r.metrics[name] = estimate(samples)
	r.dists[name] = summarise(samples)
}

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// n scales a fixed operation count.
func (r *run) n(x int) int {
	if x /= r.cfg.scale; x < 1 {
		return 1
	}
	return x
}

// budget returns the given share of the run's measuring time.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

type workload struct {
	e2e, ledger func(*run)
}

var workloads = map[string]workload{
	"httpd_small":      {httpSmall.e2e, httpSmall.ledger},
	"httpd_bulk":       {httpBulk.e2e, httpBulk.ledger},
	"sqlite_speedtest": {sqliteE2E, sqliteLedger},
	"prod_openloop":    {prodE2E, prodLedger},
	"cluster_failover": {clusterE2E, clusterLedger},
}

// hostRecord tags every result with the machine and build it came from.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func thisHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     os.Getenv("BENCH_COMMIT"),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of the -out history file.
type record struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Dists     map[string]dist        `json:"dists,omitempty"`
	Host      hostRecord             `json:"host"`
	WallS     float64                `json:"wall_s"`
	// PeakRSSMiB is the process's VmHWM when the run ended. It is kept for
	// the record only: it swung between 40 and 97 MiB over twenty runs of
	// httpd_bulk, so the gated memory metric is the median resident set.
	PeakRSSMiB float64 `json:"peak_rss_mib"`
}

// finish turns what the workload reported into the record, holding it to
// the declared metric set: a declared metric the workload did not report
// reads 0 when it is a per-layer one (it does not apply to this workload)
// and is a failure when it is an end-to-end one; an undeclared metric is
// always a failure.
func (r *run) finish(sp *spec, name string, trace int, wall time.Duration) record {
	declared := sp.EndToEnd
	if trace == 1 {
		declared = sp.PerLayer
	}
	rec := record{
		Workload: name, Trace: trace, Seed: r.cfg.seed, Seconds: r.cfg.seconds,
		Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}, Dists: r.dists,
		Host: thisHost(), WallS: wall.Seconds(), PeakRSSMiB: peakRSSMiB(),
	}
	known := map[string]bool{}
	for _, m := range declared {
		known[m.Name] = true
		v, ok := r.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problemf("metric %s is not a finite number", m.Name)
			v = 0
		}
		if !ok && trace == 0 {
			r.problemf("end-to-end metric %s was not measured", m.Name)
		}
		if trace == 0 && v == 0 {
			r.problemf("end-to-end metric %s reads 0", m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for got := range r.metrics {
		if !known[got] {
			r.problemf("metric %s is not declared in BENCHMARK.json", got)
		}
	}
	if r.attempted < 1 {
		r.problemf("no operation was attempted")
	}
	if r.failed > 0 {
		r.problemf("%d of %d operations failed", r.failed, r.attempted)
	}
	rec.Problems = r.problems
	rec.Correct = len(r.problems) == 0
	return rec
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all to run each one in a process of its own")
	seed := fs.Int64("seed", 1, "seed for file contents, file-pick order and the cluster")
	seconds := fs.Float64("seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end run; 1: ledger run (per-layer metrics, spans, micro-probes)")
	out := fs.String("out", "", "append the run's full record to this file, one JSON object a line")
	spansOut := fs.String("spans", "", "with -trace 1, write the host-time spans to this file, one JSON object a line")
	compare := fs.Bool("compare", false, "compare two -out files: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: run from the root of the checkout:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(sp, *seed, *seconds, *out, stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	// Pinned to the width of the build host and recorded: the workloads
	// are single-threaded, so more processors would only change how the
	// garbage collector overlaps with them.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	r := newRun(runCfg{seed: *seed, seconds: *seconds, scale: 1})
	start := time.Now()
	if *trace == 1 {
		w.ledger(r)
	} else {
		w.e2e(r)
	}
	rec := r.finish(sp, *name, *trace, time.Since(start))

	if *spansOut != "" && *trace == 1 {
		if err := r.spans.writeFile(*spansOut); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	printRecord(stdout, sp, rec)
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "benchmark: FAILED:", p)
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !rec.Correct {
		return 1
	}
	return 0
}

// printRecord lists every metric by name with its unit, and the summary
// of the samples where the value comes from samples.
func printRecord(w io.Writer, sp *spec, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "# %s trace=%d seed=%d seconds=%g wall=%.1fs peak_rss=%.1fMiB nproc=%d GOMAXPROCS=%d %s %q commit=%s\n",
		rec.Workload, rec.Trace, rec.Seed, rec.Seconds, rec.WallS, rec.PeakRSSMiB, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	declared := sp.EndToEnd
	if rec.Trace == 1 {
		declared = sp.PerLayer
	}
	for _, m := range declared {
		line := fmt.Sprintf("%-44s %18.6f %-8s", m.Name, rec.Metrics[m.Name].Value, m.Unit)
		if d, ok := rec.Dists[m.Name]; ok {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g n=%d", d.Q1, d.Q3, d.N)
			if d.TailPct > 0 {
				line += fmt.Sprintf(" p%.4g=%.6g", d.TailPct, d.Tail)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, end-to-end then ledger, each in a process
// of its own and one after the other, so that peak memory and garbage
// collector state do not depend on the order of the workloads.
func runAll(sp *spec, seed int64, seconds float64, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.Name, "-trace", trace,
				"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s trace=%s: %v\n", w.Name, trace, err)
				code = 1
			}
		}
	}
	return code
}
