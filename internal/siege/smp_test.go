package siege

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/ramfs"
)

// mkShard builds the shard boot function used by every parallel test:
// identical traced deployments with one 4 KiB file, each digest started
// at boot and each target kept in shards[core] where shards has room.
func mkShard(shards []*Target) func(core int) (*Target, error) {
	return func(core int) (*Target, error) {
		tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, TraceEvents: 64})
		if err != nil {
			return nil, err
		}
		tgt.Sys.M.Tracer().StartDigest()
		if core < len(shards) {
			shards[core] = tgt
		}
		return tgt, tgt.PutFile("/index.html", make([]byte, 4096))
	}
}

// shardDigests pins a sharded run: each shard's stream digest with its own
// figures and the merged ones folded in — every virtual-time result, so
// neither how the host schedules the shard goroutines nor a second run in
// the process may move one.
func shardDigests(ps *ParallelStats, shards []*Target) []uint64 {
	out := make([]uint64, len(shards))
	for c, tgt := range shards {
		out[c] = cubicletest.StreamDigest(tgt.Sys.M, fmt.Appendf(nil, "%+v %+v", *ps.PerCore[c], ps.OpenLoopStats))
	}
	return out
}

// TestParallelOpenLoopPinned is the siege-level determinism gate:
// three shards' streams and virtual-time results — counters, latency
// percentiles and per-shard stats — against their pins. Under -race it
// also gates that the shards share nothing.
func TestParallelOpenLoopPinned(t *testing.T) {
	shards := make([]*Target, 3)
	ps, err := ParallelOpenLoop(3, mkShard(shards), OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 48})
	if err != nil {
		t.Fatal(err)
	}
	if ps.OK != 48 {
		t.Fatalf("%d of 48 requests completed: %+v", ps.OK, ps.OpenLoopStats)
	}
	want := []uint64{0x7254096e4a00f385, 0x7254096e4a00f385, 0x7254096e4a00f385}
	if got := shardDigests(ps, shards); !slices.Equal(got, want) {
		t.Errorf("shard digests %#x, want %#x", got, want)
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
		ps, err := ParallelOpenLoop(cores, mkShard(nil), opts)
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
			tgt, err := mkShard(nil)(c)
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
	ps, err := ParallelOpenLoop(4, mkShard(nil), opts)
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

// TestParallelOpenLoopUnderChaosPinned is the chaos+SMP smoke: every
// shard runs under supervision with an armed deterministic fault injector
// aimed at RAMFS, and the sharded run must (a) terminate without a stall
// or an uncontained panic, (b) actually inject and contain faults, and (c)
// match its pinned shard digests — chaos schedules are part of the
// determinism contract.
func TestParallelOpenLoopUnderChaosPinned(t *testing.T) {
	shards := make([]*Target, 2)
	mk := func(core int) (*Target, error) {
		policy := cubicle.DefaultRestartPolicy()
		policy.MaxRestarts = 1000
		policy.CrossingBudget = 200_000_000
		tgt, err := NewTargetOpts(Options{
			Mode:        cubicle.ModeFull,
			Supervision: &policy,
			TraceEvents: 64,
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
		tgt.Sys.M.Tracer().StartDigest()
		if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
			return nil, err
		}
		tgt.Sys.Chaos.Arm()
		shards[core] = tgt
		return tgt, nil
	}
	ps, err := ParallelOpenLoop(len(shards), mk, OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 60})
	if err != nil {
		t.Fatal(err)
	}
	var injected, contained uint64
	for _, tgt := range shards {
		injected += tgt.Sys.M.Stats.InjectedFaults
		contained += tgt.Sys.M.Stats.ContainedFaults
	}
	if injected == 0 || contained == 0 {
		t.Fatalf("chaos shards injected %d faults and contained %d", injected, contained)
	}
	if ps.OK == 0 {
		t.Fatalf("no request survived the chaos run: %+v", ps.OpenLoopStats)
	}
	want := []uint64{0x466baf417b220b3c, 0x9c2ef574501e3516}
	if got := shardDigests(ps, shards); !slices.Equal(got, want) {
		t.Errorf("shard digests %#x, want %#x", got, want)
	}
}
