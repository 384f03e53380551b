package siege

import (
	"reflect"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/ramfs"
)

// mkShard builds the shard boot function used by every parallel test:
// identical deployments with one 4 KiB file.
func mkShard(t *testing.T) func(core int) (*Target, error) {
	t.Helper()
	return func(core int) (*Target, error) {
		tgt, err := NewTarget(cubicle.ModeFull)
		if err != nil {
			return nil, err
		}
		if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
			return nil, err
		}
		return tgt, nil
	}
}

// virtualView strips the wall-clock fields from a parallel result so runs
// can be compared for virtual-time determinism.
func virtualView(ps *ParallelStats) ParallelStats {
	v := *ps
	v.WallSeconds, v.WallRPS = 0, 0
	return v
}

// TestParallelOpenLoopDeterministic is the siege-level determinism gate:
// the same configuration driven five times produces identical virtual-time
// results — counters, latency percentiles and per-shard stats — regardless
// of how the host schedules the shard goroutines. Under -race it also
// gates that the shards share nothing.
func TestParallelOpenLoopDeterministic(t *testing.T) {
	opts := OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 48}
	run := func() ParallelStats {
		ps, err := ParallelOpenLoop(3, mkShard(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		return virtualView(ps)
	}
	first := run()
	if first.OK == 0 {
		t.Fatalf("no completed requests: %+v", first.OpenLoopStats)
	}
	for i := 1; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n got  %+v\n want %+v", i, got, first)
		}
	}
}

// TestParallelOpenLoopOneCoreMatchesSequential is the invariant that lets
// the shards run unsynchronised: at every core count, each shard's result
// equals that shard driven alone — the same deployment at Rate/cores with
// its share of the arrivals (the remainder on the lowest cores), started by
// StartOpenLoop and stepped to the end — and the merged figures are the
// shards' counters summed with Summarise over their pooled latencies. At
// cores=1 that is a plain OpenLoop run, field for field: the siege half of
// the "cores=1 is byte-identical to the seed" guarantee.
func TestParallelOpenLoopOneCoreMatchesSequential(t *testing.T) {
	opts := OpenLoopOptions{Path: "/index.html", Rate: 1500, Requests: 26}
	for _, cores := range []int{1, 2, 3, 4} {
		ps, err := ParallelOpenLoop(cores, mkShard(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Cores != cores || len(ps.PerCore) != cores {
			t.Fatalf("cores=%d: got Cores=%d and %d shard results", cores, ps.Cores, len(ps.PerCore))
		}
		want := OpenLoopStats{OfferedRPS: opts.Rate}
		var lats []uint64
		var maxElapsed uint64
		for c := 0; c < cores; c++ {
			tgt, err := mkShard(t)(c)
			if err != nil {
				t.Fatal(err)
			}
			so := opts
			so.Rate = opts.Rate / float64(cores)
			so.Requests = opts.Requests / cores
			if c < opts.Requests%cores {
				so.Requests++
			}
			r, err := tgt.StartOpenLoop(so)
			if err != nil {
				t.Fatal(err)
			}
			for r.step() {
			}
			alone := r.Finish()
			if !reflect.DeepEqual(ps.PerCore[c], alone) {
				t.Fatalf("cores=%d: shard %d differs from the shard driven alone:\n got  %+v\n want %+v",
					cores, c, ps.PerCore[c], alone)
			}
			want.Arrivals += alone.Arrivals
			want.OK += alone.OK
			want.Shed += alone.Shed
			want.Errors += alone.Errors
			want.Dropped += alone.Dropped
			want.MaxConns += alone.MaxConns
			want.ArenaBytes += alone.ArenaBytes
			lats = append(lats, r.lats...)
			maxElapsed = max(maxElapsed, r.elapsed)
		}
		want.LatencySummary = Summarise(lats, want.OK, maxElapsed)
		if want.OK != opts.Requests {
			t.Fatalf("cores=%d: %d of %d arrivals completed", cores, want.OK, opts.Requests)
		}
		if !reflect.DeepEqual(ps.OpenLoopStats, want) {
			t.Fatalf("cores=%d: merged stats differ from the shards driven alone:\n got  %+v\n want %+v",
				cores, ps.OpenLoopStats, want)
		}
	}
}

// TestParallelOpenLoopShardsLoad asserts the request split: every arrival
// lands on some shard, the remainder goes to the low cores, and all
// shards complete their share.
func TestParallelOpenLoopShardsLoad(t *testing.T) {
	opts := OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 10}
	ps, err := ParallelOpenLoop(4, mkShard(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Arrivals != 10 || ps.OK != 10 {
		t.Fatalf("arrivals=%d ok=%d, want 10/10 (stats %+v)", ps.Arrivals, ps.OK, ps.OpenLoopStats)
	}
	wantPerCore := []int{3, 3, 2, 2}
	if len(ps.PerCore) != 4 {
		t.Fatalf("got %d shard results, want 4", len(ps.PerCore))
	}
	for c, st := range ps.PerCore {
		if st.Arrivals != wantPerCore[c] {
			t.Fatalf("shard %d got %d arrivals, want %d", c, st.Arrivals, wantPerCore[c])
		}
	}
}

// TestParallelOpenLoopUnderChaos is the chaos+SMP smoke: every shard runs
// under supervision with an armed deterministic fault injector aimed at
// RAMFS, and the sharded run must (a) terminate without a stall or an
// uncontained panic, (b) actually inject and contain faults, and (c)
// reproduce the same virtual-time figures and per-shard monitor stats on
// a second run — chaos schedules are part of the determinism contract.
func TestParallelOpenLoopUnderChaos(t *testing.T) {
	const cores = 2
	run := func() (ParallelStats, []cubicle.Stats) {
		targets := make([]*Target, cores)
		mk := func(core int) (*Target, error) {
			policy := cubicle.DefaultRestartPolicy()
			policy.MaxRestarts = 1000
			policy.CrossingBudget = 200_000_000
			tgt, err := NewTargetOpts(Options{
				Mode:        cubicle.ModeFull,
				Supervision: &policy,
				Chaos: &faultinject.Config{
					Seed:           uint64(11 + core),
					Target:         ramfs.Name,
					ProtAtCrossing: 0.004,
					ProtAtWindowOp: 0.002,
					ProtAtRetag:    0.001,
				},
			})
			if err != nil {
				return nil, err
			}
			if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
				return nil, err
			}
			tgt.Sys.Chaos.Arm()
			targets[core] = tgt
			return tgt, nil
		}
		opts := OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 60}
		ps, err := ParallelOpenLoop(cores, mk, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]cubicle.Stats, cores)
		for c, tgt := range targets {
			st := tgt.Sys.M.Stats
			st.Calls = nil // map iteration order irrelevant; edges checked via DeepEqual of counters
			stats[c] = st
		}
		return virtualView(ps), stats
	}
	first, stats0 := run()
	var injected, contained uint64
	for _, st := range stats0 {
		injected += st.InjectedFaults
		contained += st.ContainedFaults
	}
	if injected == 0 {
		t.Fatalf("chaos shards injected no faults; schedule or rate broken")
	}
	if contained == 0 {
		t.Fatalf("faults injected but none contained: %+v", stats0)
	}
	if first.OK == 0 {
		t.Fatalf("no request survived the chaos run: %+v", first.OpenLoopStats)
	}
	again, stats1 := run()
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("chaos SMP run not reproducible:\n got  %+v\n want %+v", again, first)
	}
	if !reflect.DeepEqual(stats1, stats0) {
		t.Fatalf("per-shard chaos stats diverged:\n got  %+v\n want %+v", stats1, stats0)
	}
}
