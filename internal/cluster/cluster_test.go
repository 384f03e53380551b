package cluster

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/httpd"
	"cubicleos/internal/siege"
)

const testBody = "cluster-test-body cluster-test-body cluster-test-body\n"

func bootCluster(t *testing.T, o Options) *Cluster {
	t.Helper()
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutFile("/index.html", []byte(testBody)); err != nil {
		t.Fatal(err)
	}
	return c
}

func checkConservation(t *testing.T, st *Stats) {
	t.Helper()
	if st.OK+st.Shed+st.Errors+st.Dropped != st.Arrivals {
		t.Fatalf("request conservation broken: OK %d + Shed %d + Errors %d + Dropped %d != Arrivals %d",
			st.OK, st.Shed, st.Errors, st.Dropped, st.Arrivals)
	}
}

// raceBuild is set by race_test.go: the exact allocation gate skips under
// the race detector, whose instrumentation moves the counts.
var raceBuild bool

// TestClusterAllocationCounts pins the objects one cluster arrival
// allocates on the keep-alive path (flight, leg, request and response),
// the run's own state amortised over 256 arrivals: 5.12 measured, 6
// allowed. It was 12.3 while the backends' connections, sockets, windows,
// shares, open files and checkpoint images were allocated afresh (the
// checkpoint share of it included), 19.3 while each VFS call
// boxed its argument words on the heap, 27.4 while httpd split
// the request head into strings and built the response head and the log
// line with Sprintf, and 32.3 while KAConn.Request and KAConn.Next did the
// like on the client side.
func TestClusterAllocationCounts(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	c := bootCluster(t, Options{Backends: 2, Mode: cubicle.ModeFull, ReapClosed: true})
	const arrivals = 256
	run := func() {
		st, err := c.RunOpenLoop(RunOptions{Path: "/index.html", Rate: 3000, Requests: arrivals})
		if err != nil || st.OK != arrivals {
			t.Fatalf("run: %+v, %v", st, err)
		}
	}
	run() // pools, free lists and stacks reach their high-water mark
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := float64(after.Mallocs-before.Mallocs) / arrivals; got > 6 {
		t.Errorf("a cluster arrival allocates %.2f objects, more than 6", got)
	} else {
		t.Logf("cluster arrival: %.2f allocations", got)
	}
}

// TestClusterGoodputScales: N backends at N× the single-backend offered
// rate complete (nearly) everything — goodput scales with fleet size, to
// at least 0.8 × N × one backend's (1.6× at 2, 3.2× at 4; it reads
// exactly 2× and 4×) — at one backend's tail latency: p99 within 1 %
// (5.4394 ms at every size). At this load goodput is the offered rate,
// so only the tail sees a backend that serves slowly: one of four slowed
// 3× reads 5.67 ms if it is backend 0, 5.50 ms if it is backend 2.
func TestClusterGoodputScales(t *testing.T) {
	// One backend's goodput and p99.
	var goodput float64
	var p99 time.Duration
	for _, n := range []int{1, 2, 4} {
		c := bootCluster(t, Options{Backends: n, Mode: cubicle.ModeFull})
		st, err := c.RunOpenLoop(RunOptions{Path: "/index.html", Rate: 1500 * float64(n), Requests: 40 * n})
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, st)
		if st.OK < st.Arrivals*9/10 {
			t.Fatalf("backends=%d: only %d/%d OK", n, st.OK, st.Arrivals)
		}
		t.Logf("backends=%d goodput=%.0f rps p50=%v p99=%v", n, st.GoodputRPS, st.P50, st.P99)
		if n == 1 {
			goodput, p99 = st.GoodputRPS, st.P99
			continue
		}
		if want := 0.8 * float64(n) * goodput; st.GoodputRPS < want {
			t.Errorf("goodput does not scale: %d backends reach %.0f rps, want >= %.0f (1 backend: %.0f)",
				n, st.GoodputRPS, want, goodput)
		}
		if float64(st.P99) > 1.01*float64(p99) {
			t.Errorf("%d backends' p99 %v is more than 1%% over one backend's %v", n, st.P99, p99)
		}
	}
}

// TestClusterFailover is the acceptance scenario: killing one of four
// backends mid-flood drains it, fails its traffic over, keeps goodput
// at ≥ 60% of the undisturbed run, and re-admits the backend after a
// warm (checkpoint-restored) restart.
func TestClusterFailover(t *testing.T) {
	opts := Options{
		Backends:           4,
		Mode:               cubicle.ModeFull,
		Seed:               7,
		CheckpointInterval: 5_000_000,
	}
	run := RunOptions{Path: "/index.html", Rate: 6000, Requests: 360}

	base := bootCluster(t, opts)
	baseSt, err := base.RunOpenLoop(run)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, baseSt)

	opts.Script = []Event{{AtCycle: 25_000_000, Backend: 1, Action: ActKill}}
	chaos := bootCluster(t, opts)
	st, err := chaos.RunOpenLoop(run)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, st)
	t.Logf("baseline goodput %.0f rps, kill-one goodput %.0f rps (drains %d readmits %d failovers %d)",
		baseSt.GoodputRPS, st.GoodputRPS, st.Drains, st.Readmits, st.Failovers)
	if st.GoodputRPS < 0.6*baseSt.GoodputRPS {
		t.Fatalf("goodput under failover %.0f rps < 60%% of steady-state %.0f rps",
			st.GoodputRPS, baseSt.GoodputRPS)
	}
	if st.Drains < 1 || st.Readmits < 1 {
		t.Fatalf("killed backend was not drained+readmitted: drains %d readmits %d", st.Drains, st.Readmits)
	}
	killed := st.PerBackend[1]
	if killed.Health != "healthy" {
		t.Fatalf("killed backend ended %q, want healthy after re-admission", killed.Health)
	}
	if killed.Sys.WarmRestarts < 1 {
		t.Fatalf("killed backend restarted cold (%d warm, %d cold restarts) — checkpoint restore did not run",
			killed.Sys.WarmRestarts, killed.Sys.ColdRestarts)
	}
	if st.Failovers < 1 {
		t.Fatal("no failovers recorded despite a mid-flood kill")
	}
}

// TestClusterStatsMergeAssociative: merging the per-backend monitor
// stats is order- and grouping-independent, so fleet roll-ups never
// depend on which backend reports first. The fleet runs with wire drops,
// a scripted kill and slowdown, and hedging all active at once; the
// cluster-kill cell of TestStreamDigestsPinned pins a run of it.
func TestClusterStatsMergeAssociative(t *testing.T) {
	c := bootCluster(t, Options{
		Backends:           4,
		Mode:               cubicle.ModeFull,
		Seed:               11,
		CheckpointInterval: 5_000_000,
		HedgeAfter:         20_000_000,
		RetryBudget:        0.25,
		Chaos:              &faultinject.Config{Seed: 11, DropAtWire: 0.015},
		Script: []Event{
			{AtCycle: 20_000_000, Backend: 2, Action: ActKill},
			{AtCycle: 30_000_000, Backend: 0, Action: ActSlow, Factor: 3, Window: 20_000_000},
		},
	})
	c.Arm()
	st, err := c.RunOpenLoop(RunOptions{Path: "/index.html", Rate: 5000, Requests: 300})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, st)
	s := make([]*cubicle.Stats, len(c.Backends))
	for i, b := range c.Backends {
		s[i] = &b.T.Sys.M.Stats
	}
	// ((0+1)+(2+3)) vs (((0+1)+2)+3) vs reverse order.
	left := cubicle.NewStats()
	left.Merge(s[0])
	left.Merge(s[1])
	right := cubicle.NewStats()
	right.Merge(s[2])
	right.Merge(s[3])
	grouped := cubicle.NewStats()
	grouped.Merge(&left)
	grouped.Merge(&right)
	linear := cubicle.NewStats()
	for i := 0; i < 4; i++ {
		linear.Merge(s[i])
	}
	reversed := cubicle.NewStats()
	for i := 3; i >= 0; i-- {
		reversed.Merge(s[i])
	}
	if !reflect.DeepEqual(grouped, linear) || !reflect.DeepEqual(linear, reversed) {
		t.Fatalf("Stats.Merge is not associative/commutative:\n grouped %+v\n linear  %+v\n reversed %+v",
			grouped, linear, reversed)
	}
}

// TestClusterRetryBudget: a fleet held at admission limits sheds loudly
// but the balancer never amplifies — retries plus hedges stay within
// the configured fraction of arrivals.
func TestClusterRetryBudget(t *testing.T) {
	c := bootCluster(t, Options{
		Backends:    2,
		Mode:        cubicle.ModeFull,
		HedgeAfter:  10_000_000,
		RetryBudget: 0.1,
		Governance:  &httpd.Governance{MaxConns: 2, RetryAfter: 1},
	})
	st, err := c.RunOpenLoop(RunOptions{Path: "/index.html", Rate: 12_000, Requests: 240})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, st)
	if st.Shed == 0 {
		t.Fatal("overload run shed nothing — admission control never engaged")
	}
	budget := uint64(0.1*float64(st.Arrivals)) + 1
	if st.Retries+st.Hedges > budget {
		t.Fatalf("balancer amplified load: %d retries + %d hedges > budget %d over %d arrivals",
			st.Retries, st.Hedges, budget, st.Arrivals)
	}
}

// TestRouteFaultTyped: with every backend sick the balancer returns the
// typed *RouteFault carrying the fleet health census.
func TestRouteFaultTyped(t *testing.T) {
	c := bootCluster(t, Options{Backends: 2, Mode: cubicle.ModeFull})
	if !c.Kill(0) || !c.Kill(1) {
		t.Fatal("Kill did not reach the supervisors")
	}
	_, err := c.Route(1, -1)
	var rf *RouteFault
	if !errors.As(err, &rf) {
		t.Fatalf("Route returned %v, want *RouteFault", err)
	}
	if rf.Healthy != 0 || rf.Draining != 2 || rf.Dead != 0 {
		t.Fatalf("census = %+v, want 0 healthy / 2 draining / 0 dead", rf)
	}
	if c.RouteFaults != 1 {
		t.Fatalf("RouteFaults = %d, want 1", c.RouteFaults)
	}
}

// TestOpenLoopRejectsBadRates: every open-loop entry point refuses a rate
// that is not finite and positive, or no arrivals, before it schedules
// anything (a NaN rate used to pass and hang the cadence loops).
func TestOpenLoopRejectsBadRates(t *testing.T) {
	tgt, err := siege.NewTarget(cubicle.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	c := bootCluster(t, Options{Backends: 1, Mode: cubicle.ModeFull})
	mk := func(int) (*siege.Target, error) {
		t.Error("ParallelOpenLoop booted a shard for a bad run")
		return tgt, nil
	}
	entries := map[string]func(rate float64, requests int) error{
		"StartOpenLoop": func(rate float64, requests int) error {
			_, err := tgt.StartOpenLoop(siege.OpenLoopOptions{Path: "/", Rate: rate, Requests: requests})
			return err
		},
		"ParallelOpenLoop": func(rate float64, requests int) error {
			_, err := siege.ParallelOpenLoop(2, mk, siege.OpenLoopOptions{Path: "/", Rate: rate, Requests: requests})
			return err
		},
		"cluster RunOpenLoop": func(rate float64, requests int) error {
			_, err := c.RunOpenLoop(RunOptions{Path: "/index.html", Rate: rate, Requests: requests})
			return err
		},
	}
	bad := []struct {
		rate     float64
		requests int
	}{
		{math.NaN(), 5}, {math.Inf(1), 5}, {math.Inf(-1), 5}, {0, 5}, {-1000, 5}, {1000, 0}, {1000, -1},
	}
	for name, run := range entries {
		for _, b := range bad {
			if err := run(b.rate, b.requests); err == nil {
				t.Errorf("%s accepted rate %v with %d requests", name, b.rate, b.requests)
			}
		}
	}
}
