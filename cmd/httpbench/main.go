// Command httpbench drives the NGINX deployment past the paper's
// closed-loop Figure 7 (which is cubicle-bench -fig 7). It runs one of:
//
//	-openloop    an open-loop offered-load sweep across the saturation
//	             knee, governed (admission control + bounded buffers)
//	             against ungoverned: goodput, sheds, tail latencies, peak
//	             connections and the memory the overload left behind
//	-cores N     the same sweep sharded across N simulated cores
//	-cluster N   goodput scaling over 1..N backends, then failover
//
// -assert-scale gates the shard speed-up on wall-clock time. The
// virtual-time shapes the other runs print are gated by Go tests:
// siege's TestOpenLoopGracefulDegradation, cluster's
// TestClusterGoodputScales and TestClusterFailover. A flag the selected
// run does not read is a usage error (exit 2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"cubicleos"
	"cubicleos/internal/cluster"
	"cubicleos/internal/siege"
)

// parseRates parses the -rates flag into offered loads, each finite and
// positive.
func parseRates(rateList string) ([]float64, error) {
	var rates []float64
	for _, s := range strings.Split(rateList, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(r > 0) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("bad rate %q in -rates", s)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// mustRates is parseRates for main: a bad list ends the run.
func mustRates(rateList string) []float64 {
	r, err := parseRates(rateList)
	must(err)
	return r
}

// must ends the run on an error.
func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// target boots the deployment with o and provisions the 4 KiB
// /index.html every sweep fetches.
func target(o siege.Options) (*siege.Target, error) {
	tgt, err := siege.NewTargetOpts(o)
	if err != nil {
		return nil, err
	}
	return tgt, tgt.PutFile("/index.html", make([]byte, 4096))
}

// openLoopSweep compares the ungoverned and governed servers at each
// offered rate.
func openLoopSweep(rates []float64, requests int) {
	full := siege.Options{Mode: cubicleos.ModeFull}
	opts := siege.OpenLoopOptions{Path: "/index.html", Requests: requests}
	ungov, err := siege.OpenLoopSweep(rates, func() (*siege.Target, error) { return target(full) }, opts)
	must(err)
	gov, err := siege.OpenLoopSweep(rates, func() (*siege.Target, error) { return target(full.Governed()) }, opts)
	must(err)
	fmt.Printf("%-10s %9s %8s %5s %5s %8s %8s %9s %10s\n",
		"config", "offered", "goodput", "ok", "shed", "p50", "p99", "maxconns", "arena KiB")
	row := func(name string, st *siege.OpenLoopStats) {
		fmt.Printf("%-10s %9.0f %8.0f %5d %5d %8s %8s %9d %10d\n",
			name, st.OfferedRPS, st.GoodputRPS, st.OK, st.Shed,
			st.P50.Round(10_000).String(), st.P99.Round(10_000).String(),
			st.MaxConns, st.ArenaBytes/1024)
	}
	for i := range rates {
		row("ungoverned", ungov[i])
		row("governed", gov[i])
	}
}

// parallelSweep runs the open-loop sweep through the SMP driver: each
// offered rate is sharded across N cores, one booted system per core,
// each stepped to completion by its own goroutine. The
// virtual-time columns match the single-core driver's semantics; the
// wall columns show host-parallel scaling. With assertScale > 0 two more
// N-core sweeps and two 1-core reference sweeps run afterwards, and the
// command exits non-zero unless the N-core sweeps' aggregate wall-clock
// throughput reached assertScale× the reference's.
func parallelSweep(rates []float64, requests, cores int, assertScale float64) {
	mk := func(int) (*siege.Target, error) { return target(siege.Options{Mode: cubicleos.ModeFull}) }
	sweep := func(n int) []*siege.ParallelStats {
		out := make([]*siege.ParallelStats, 0, len(rates))
		for _, r := range rates {
			o := siege.OpenLoopOptions{Path: "/index.html", Rate: r, Requests: requests}
			ps, err := siege.ParallelOpenLoop(n, mk, o)
			must(err)
			out = append(out, ps)
		}
		return out
	}
	res := sweep(cores)
	fmt.Printf("cores=%d  requests=%d per rate\n", cores, requests)
	fmt.Printf("%9s %8s %5s %5s %8s %8s %9s %9s\n",
		"offered", "goodput", "ok", "shed", "p50", "p99", "wall ms", "wall rps")
	for _, ps := range res {
		fmt.Printf("%9.0f %8.0f %5d %5d %8s %8s %9.1f %9.0f\n",
			ps.OfferedRPS, ps.GoodputRPS, ps.OK, ps.Shed,
			ps.P50.Round(10_000).String(), ps.P99.Round(10_000).String(),
			ps.WallSeconds*1000, ps.WallRPS)
	}
	if assertScale <= 0 {
		return
	}
	// The sweep above paid for growing the heap, which made a reference run
	// after it look 1.5x faster than the same run before it. The measured
	// sweeps alternate 1, N, N, 1, so neither side runs first and a drift
	// in host load cancels.
	var okN, ok1 int
	var wallN, wall1 float64
	for i, n := range []int{1, cores, cores, 1} {
		for _, ps := range sweep(n) {
			if i == 0 || i == 3 {
				ok1 += ps.OK
				wall1 += ps.WallSeconds
			} else {
				okN += ps.OK
				wallN += ps.WallSeconds
			}
		}
	}
	if okN == 0 || ok1 == 0 || wallN <= 0 || wall1 <= 0 {
		log.Fatalf("assert-scale: degenerate sweep (ok=%d/%d wall=%.3f/%.3f)", okN, ok1, wallN, wall1)
	}
	rpsN, rps1 := float64(okN)/wallN, float64(ok1)/wall1
	scale := rpsN / rps1
	fmt.Printf("wall-clock scaling: %.0f rps on %d cores vs %.0f rps on 1 core = %.2fx\n",
		rpsN, cores, rps1, scale)
	if scale < assertScale {
		log.Fatalf("assert-scale: %d-core wall throughput only %.2fx the 1-core reference, want >= %.2fx",
			cores, scale, assertScale)
	}
	fmt.Printf("assert-scale ok: >= %.2fx\n", assertScale)
}

// clusterRun drives the virtual cluster (httpbench -cluster N): a
// goodput-scaling sweep over 1..N backends, then the failover scenario —
// one backend killed mid-flood — against an undisturbed reference run.
func clusterRun(n int, rate float64, requests int, seed uint64) {
	if n < 1 {
		log.Fatal("-cluster needs at least 1 backend")
	}
	// flood boots a cluster of size backends, provisions /index.html and
	// runs ro against it.
	flood := func(size int, script []cluster.Event, ro cluster.RunOptions) *cluster.Stats {
		c, err := cluster.New(cluster.Options{
			Backends:           size,
			Mode:               cubicleos.ModeFull,
			Seed:               seed,
			CheckpointInterval: 5_000_000,
			Script:             script,
		})
		must(err)
		must(c.PutFile("/index.html", make([]byte, 4096)))
		st, err := c.RunOpenLoop(ro)
		must(err)
		return st
	}
	perBackendRate := rate / float64(n)

	fmt.Printf("goodput scaling sweep (%.0f rps per backend, %d arrivals per backend)\n", perBackendRate, requests)
	fmt.Printf("%9s %9s %8s %5s %5s %5s %8s %8s\n",
		"backends", "offered", "goodput", "ok", "shed", "drop", "p50", "p99")
	for size := 1; size <= n; size *= 2 {
		st := flood(size, nil, cluster.RunOptions{
			Path: "/index.html", Rate: perBackendRate * float64(size), Requests: requests * size})
		fmt.Printf("%9d %9.0f %8.0f %5d %5d %5d %8s %8s\n",
			size, st.OfferedRPS, st.GoodputRPS, st.OK, st.Shed, st.Dropped,
			st.P50.Round(10_000).String(), st.P99.Round(10_000).String())
	}

	run := cluster.RunOptions{Path: "/index.html", Rate: rate, Requests: requests * n}
	baseline := flood(n, nil, run)
	victim := n / 2
	script := []cluster.Event{{AtCycle: 25_000_000, Backend: victim, Action: cluster.ActKill}}
	chaos := flood(n, script, run)
	fmt.Printf("\nfailover: kill backend %d of %d mid-flood at %.0f rps\n", victim, n, rate)
	fmt.Printf("%-10s %8s %5s %5s %5s %7s %7s %9s %8s\n",
		"config", "goodput", "ok", "shed", "drop", "drains", "readmit", "failovers", "p99")
	row := func(name string, st *cluster.Stats) {
		fmt.Printf("%-10s %8.0f %5d %5d %5d %7d %7d %9d %8s\n",
			name, st.GoodputRPS, st.OK, st.Shed, st.Dropped,
			st.Drains, st.Readmits, st.Failovers, st.P99.Round(10_000).String())
	}
	row("steady", baseline)
	row("kill-one", chaos)
	v := chaos.PerBackend[victim]
	fmt.Printf("victim backend %d: health=%s warm-restarts=%d routed=%d\n",
		v.Index, v.Health, v.Sys.WarmRestarts, v.Routed)
}

// options are httpbench's flags.
type options struct {
	openloop                  bool
	rates                     string
	requests, cores, clusterN int
	assertScale, clusterRate  float64
	clusterSeed               uint64
}

// reads lists, for each run, the flags it reads.
var reads = map[string][]string{
	"openloop": {"openloop", "rates", "requests"},
	"cores":    {"cores", "rates", "requests", "assert-scale"},
	"cluster":  {"cluster", "cluster-rate", "cluster-seed"},
}

// parseFlags parses args into o and names the run they select: -cluster N,
// else -cores N, else -openloop. It refuses a command line that selects no
// run, and every flag set on it that the run does not read: that flag
// would be ignored, and a gate among them silently skipped.
func parseFlags(fs *flag.FlagSet, args []string) (o options, run string, err error) {
	fs.BoolVar(&o.openloop, "openloop", false, "run the open-loop overload sweep, governed against ungoverned")
	fs.StringVar(&o.rates, "rates", "1000,2000,4000,8000", "offered rates (rps) for -openloop and -cores")
	fs.IntVar(&o.requests, "requests", 120, "arrivals per rate for -openloop and -cores")
	fs.IntVar(&o.cores, "cores", 0, "shard the open-loop sweep across N simulated cores (SMP driver)")
	fs.Float64Var(&o.assertScale, "assert-scale", 0, "with -cores: exit non-zero unless wall throughput >= X times a 1-core reference")
	fs.IntVar(&o.clusterN, "cluster", 0, "run the virtual-cluster scaling + failover scenario with N backends")
	fs.Float64Var(&o.clusterRate, "cluster-rate", 6000, "cluster-wide offered rate (rps) for -cluster")
	fs.Uint64Var(&o.clusterSeed, "cluster-seed", 7, "seed for the -cluster chaos and hash streams")
	if err := fs.Parse(args); err != nil {
		return o, "", err
	}
	switch {
	case o.clusterN > 0:
		run = "cluster"
	case o.cores > 0:
		run = "cores"
	case o.openloop:
		run = "openloop"
	default:
		return o, "", errors.New("no run: want -openloop, -cores N or -cluster N")
	}
	var errs []error
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads[run], f.Name) {
			errs = append(errs, fmt.Errorf("-%s: a -%s run does not read it", f.Name, run))
		}
	})
	return o, run, errors.Join(errs...)
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: httpbench -openloop | -cores N | -cluster N [flags]\n"+
			"(the Figure 7 latency-vs-size sweep is cubicle-bench -fig 7)")
		flag.PrintDefaults()
	}
	o, run, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	switch run {
	case "cluster":
		clusterRun(o.clusterN, o.clusterRate, 90, o.clusterSeed)
	case "cores":
		parallelSweep(mustRates(o.rates), o.requests, o.cores, o.assertScale)
	case "openloop":
		openLoopSweep(mustRates(o.rates), o.requests)
	}
}
