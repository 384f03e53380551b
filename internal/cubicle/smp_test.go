package cubicle

import (
	"reflect"
	"sync"
	"testing"

	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// newWorker creates a thread placed on the given core with its own Env.
func newWorker(m *Monitor, core int) *Env {
	t := m.NewThread()
	m.SetThreadCore(t, core)
	return m.NewEnv(t)
}

// enterOn switches a worker thread into the named cubicle the way the
// boot loader enters application mains. The PKRU computation touches the
// key registry, so it runs under the global lock.
func enterOn(ts *testSystem, e *Env, name string) {
	cub := ts.cubs[name]
	m := ts.m
	e.T.pushFrame(cub.ID, true)
	if m.Mode.MPKEnabled() {
		m.lockGlobal(e.T)
		p := m.pkruFor(cub.ID)
		m.unlockGlobal(e.T)
		m.wrpkru(e.T, p)
	}
}

func leaveOn(ts *testSystem, e *Env) {
	e.T.popFrame()
}

// TestShootdownInvalidatesRemoteTLBs is the unit contract of the
// libmpk-style retag sync: on a 2-core monitor a shootdown charges
// ShootdownIPI per remote core to the retagging thread and counts one
// shootdown. It models the cost only; the simulator has no per-thread
// translation state to invalidate.
func TestShootdownInvalidatesRemoteTLBs(t *testing.T) {
	ts := bootPair(t, ModeFull)
	m := ts.m
	m.EnableSMP(2)
	newWorker(m, 1)
	t0 := ts.env.T // boot thread stays on core 0

	before := t0.clk.Cycles()
	m.lockGlobal(t0)
	m.shootdown(t0, ts.cubs["FOO"].ID)
	m.unlockGlobal(t0)

	wantCost := m.Costs.ShootdownIPI // one remote core
	if got := t0.clk.Cycles() - before; got != wantCost {
		t.Fatalf("shootdown charged %d cycles, want %d", got, wantCost)
	}
	m.FoldStats()
	if m.Stats.TLBShootdowns != 1 {
		t.Fatalf("TLBShootdowns = %d, want 1", m.Stats.TLBShootdowns)
	}
}

// TestShootdownSingleCoreIsFree pins the byte-identity guarantee: without
// EnableSMP a shootdown charges nothing and counts nothing — the pre-SMP
// cost model is untouched.
func TestShootdownSingleCoreIsFree(t *testing.T) {
	ts := bootPair(t, ModeFull)
	m := ts.m
	before := m.Clock.Cycles()
	m.shootdown(ts.env.T, ts.cubs["FOO"].ID)
	if m.Clock.Cycles() != before {
		t.Fatalf("single-core shootdown charged cycles")
	}
	if m.Stats.TLBShootdowns != 0 {
		t.Fatalf("single-core shootdown counted: %d", m.Stats.TLBShootdowns)
	}
}

// TestSMPRetagShootsDownEndToEnd drives a real trap-and-map retag on core
// 0 of a 2-core machine and asserts the retag carried a shootdown: the
// counters moved, and the trace recorded the shootdown with the retagging
// thread's core.
func TestSMPRetagShootsDownEndToEnd(t *testing.T) {
	ts := bootPair(t, ModeFull)
	m := ts.m
	trc := m.EnableTracing(1 << 12)
	m.EnableSMP(2)
	e1 := newWorker(m, 1)

	addr := ts.heapIn(t, "FOO", 64)
	// A crossing on core 1, so the trace holds events from both cores.
	m.MustResolve(MonitorID, "FOO", "foo_noop").Call(e1)

	barID := ts.cubs["BAR"].ID
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		e.WindowAdd(wid, addr, 64)
		e.WindowOpen(wid, barID)
		h := m.MustResolve(e.Cubicle(), "BAR", "bar")
		h.Call(e, uint64(addr), 3) // BAR's store traps and retags the page
	})

	m.FoldStats()
	if m.Stats.Retags == 0 {
		t.Fatalf("workload performed no retag")
	}
	if m.Stats.TLBShootdowns == 0 {
		t.Fatalf("SMP retag recorded no shootdown")
	}
	// The trace view and the live counters must agree, shootdowns included.
	if got := StatsFromTrace(trc); !reflect.DeepEqual(got, m.Stats) {
		t.Fatalf("StatsFromTrace diverged:\n got  %+v\n want %+v", got, m.Stats)
	}
	// Events carry the recording thread's core.
	core1 := false
	for _, ev := range trc.Events() {
		if ev.Core == 1 {
			core1 = true
			break
		}
	}
	if !core1 {
		t.Fatalf("no trace event stamped with core 1")
	}
}

// smpCrossingWorkload runs the two-worker retag ping-pong and returns the
// per-core clock readings plus final stats. Each worker is entered into
// FOO and given a window on its own page to BAR before the goroutines
// start; worker c's goroutine then alternates BAR-writes (retag to BAR)
// with its own stores (retag back to FOO) — every iteration crosses
// cubicles, traps, retags and shoots down. What this shape leaves out
// (one page shared by both workers, set-up inside the goroutines) is
// interleaving-dependent by construction and is covered by
// TestSMPSharedPageRetagsConserve.
func smpCrossingWorkload(t *testing.T, iters int) ([2]uint64, Stats, Stats) {
	t.Helper()
	ts := bootPair(t, ModeFull)
	m := ts.m
	trc := m.EnableTracing(1 << 14)
	m.EnableSMP(2)
	workers := [2]*Env{newWorker(m, 0), newWorker(m, 1)}
	barID := ts.cubs["BAR"].ID

	// Per-worker pages, allocated before the goroutines start: page-sized,
	// because two 64-byte allocations share one heap page and concurrent
	// retags of a shared page are interleaving-dependent (see
	// smpMergedStream).
	addrs := [2]vm.Addr{ts.heapIn(t, "FOO", 4096), ts.heapIn(t, "FOO", 4096)}
	barH := m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")

	// Window setup runs sequentially in core order, as in smpMergedStream:
	// window ids and search depth come from shared state, so concurrent
	// setup would charge whichever worker got there second.
	for c := 0; c < 2; c++ {
		e := workers[c]
		enterOn(ts, e, "FOO")
		wid := e.WindowInit()
		e.WindowAdd(wid, addrs[c], 64)
		e.WindowOpen(wid, barID)
	}

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e := workers[c]
			for i := 0; i < iters; i++ {
				barH.Call(e, uint64(addrs[c]), uint64(i%64))
				e.StoreByte(addrs[c], byte(i))
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < 2; c++ {
		leaveOn(ts, workers[c])
	}
	m.FoldStats() // merge the workers' staged counter shards

	var clocks [2]uint64
	for c := 0; c < 2; c++ {
		clocks[c] = m.CoreClock(c).Cycles()
	}
	return clocks, m.Stats, StatsFromTrace(trc)
}

// TestSMPParallelRetagsDeterministic is the monitor-level determinism and
// race gate: two worker goroutines hammer cross-cubicle calls and
// trap-and-map retags of their own pages concurrently, and five runs must
// produce identical per-core clocks and identical stats — as long as the
// workers share no page and no window set-up, the goroutine interleaving
// is not allowed to leak into virtual time. StatsFromTrace equality over
// the multi-core trace rides along, and -race checks the locking protocol.
func TestSMPParallelRetagsDeterministic(t *testing.T) {
	const iters = 40
	clocks0, stats0, fromTrace0 := smpCrossingWorkload(t, iters)
	if stats0.TLBShootdowns == 0 {
		t.Fatalf("workload produced no shootdowns")
	}
	if stats0.CallsTotal == 0 || stats0.Retags == 0 {
		t.Fatalf("workload too idle: %+v", stats0)
	}
	if !reflect.DeepEqual(fromTrace0, stats0) {
		t.Fatalf("StatsFromTrace diverged on SMP run:\n got  %+v\n want %+v", fromTrace0, stats0)
	}
	for run := 1; run < 5; run++ {
		clocks, stats, fromTrace := smpCrossingWorkload(t, iters)
		if clocks != clocks0 {
			t.Fatalf("run %d per-core clocks diverged: %v vs %v", run, clocks, clocks0)
		}
		if !reflect.DeepEqual(stats, stats0) {
			t.Fatalf("run %d stats diverged:\n got  %+v\n want %+v", run, stats, stats0)
		}
		if !reflect.DeepEqual(fromTrace, stats) {
			t.Fatalf("run %d trace view diverged", run)
		}
	}
}

// TestSMPSharedPageRetagsConserve is the contended shape the
// deterministic gate above cannot hold: both workers' 64-byte buffers sit
// on ONE heap page, and each goroutine does its own enter, window set-up
// and leave. Which core holds the page's key when the other one retags
// it, and which worker's window is searched first, depend on the
// goroutine interleaving, so per-core clocks and WindowSearchSteps differ
// from run to run (see ROADMAP, "SMP shared-page retags"). What must hold
// under every interleaving is asserted here: no call, window op or store
// is lost, every trap is answered by exactly one retag and one shootdown,
// nothing is denied, and the trace view equals the live counters.
func TestSMPSharedPageRetagsConserve(t *testing.T) {
	const iters = 40
	for run := 0; run < 5; run++ {
		ts := bootPair(t, ModeFull)
		m := ts.m
		trc := m.EnableTracing(1 << 14)
		m.EnableSMP(2)
		workers := [2]*Env{newWorker(m, 0), newWorker(m, 1)}
		foo, barID := ts.cubs["FOO"].ID, ts.cubs["BAR"].ID

		addrs := [2]vm.Addr{ts.heapIn(t, "FOO", 64), ts.heapIn(t, "FOO", 64)}
		if addrs[0].PageNum() != addrs[1].PageNum() {
			t.Fatalf("buffers %#x and %#x do not share a page", addrs[0], addrs[1])
		}
		barH := m.MustResolve(foo, "BAR", "bar")

		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				e := workers[c]
				enterOn(ts, e, "FOO")
				defer leaveOn(ts, e)
				wid := e.WindowInit()
				e.WindowAdd(wid, addrs[c], 64)
				e.WindowOpen(wid, barID)
				for i := 0; i < iters; i++ {
					barH.Call(e, uint64(addrs[c]), uint64(i%64))
					e.StoreByte(addrs[c], byte(i))
				}
			}(c)
		}
		wg.Wait()
		m.FoldStats()

		st := m.Stats
		if st.CallsTotal != 2*iters || st.Calls[Edge{From: foo, To: barID}] != 2*iters {
			t.Fatalf("run %d: calls = %d (%v), want %d FOO→BAR", run, st.CallsTotal, st.Calls, 2*iters)
		}
		if st.WindowOps != 6 {
			t.Fatalf("run %d: WindowOps = %d, want 6", run, st.WindowOps)
		}
		if st.Retags == 0 || st.DeniedFaults != 0 || st.Faults != st.Retags || st.TLBShootdowns != st.Retags {
			t.Fatalf("run %d: faults/denied/retags/shootdowns = %d/%d/%d/%d, want n/0/n/n",
				run, st.Faults, st.DeniedFaults, st.Retags, st.TLBShootdowns)
		}
		if fromTrace := StatsFromTrace(trc); !reflect.DeepEqual(fromTrace, st) {
			t.Fatalf("run %d: StatsFromTrace diverged:\n got  %+v\n want %+v", run, fromTrace, st)
		}
		// Every store landed, whichever key the page carried at the time.
		ts.enter(t, "FOO", func(e *Env) {
			for c := 0; c < 2; c++ {
				if got := e.LoadByte(addrs[c]); got != byte(iters-1) {
					t.Fatalf("run %d: worker %d's last store reads %#x, want %#x", run, c, got, byte(iters-1))
				}
				for off := uint64(1); off < iters; off++ {
					if got := e.LoadByte(addrs[c].Add(off)); got != 0xAA {
						t.Fatalf("run %d: BAR's store at worker %d +%d reads %#x", run, c, off, got)
					}
				}
			}
		})
	}
}

// smpMergedStream runs the crossing ping-pong on the given number of
// cores — one worker goroutine per core, each with its own page — and
// returns the merged (Cycle, Core, Seq)-ordered trace stream plus both
// stats views.
func smpMergedStream(t *testing.T, cores, iters int) ([]trace.Event, Stats, Stats) {
	t.Helper()
	ts := bootPair(t, ModeFull)
	m := ts.m
	trc := m.EnableTracing(1 << 14)
	m.EnableSMP(cores)
	barID := ts.cubs["BAR"].ID
	barH := m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")

	workers := make([]*Env, cores)
	addrs := make([]vm.Addr, cores)
	// Page-sized buffers so every worker retags its own page: 64-byte
	// allocations would share one heap page, and concurrent retags of a
	// shared page have interleaving-dependent invalidation counts.
	for c := range workers {
		workers[c] = newWorker(m, c)
		addrs[c] = ts.heapIn(t, "FOO", 4096)
	}

	// Window setup runs sequentially in core order: window ids come from a
	// shared counter, so concurrent setup would leak the goroutine
	// interleaving into the window_op events' payloads. The crossing loop
	// itself touches only per-worker pages and is interleaving-proof.
	for c := 0; c < cores; c++ {
		e := workers[c]
		enterOn(ts, e, "FOO")
		wid := e.WindowInit()
		e.WindowAdd(wid, addrs[c], 64)
		e.WindowOpen(wid, barID)
	}

	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e := workers[c]
			for i := 0; i < iters; i++ {
				barH.Call(e, uint64(addrs[c]), uint64(i%64))
				e.StoreByte(addrs[c], byte(i))
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < cores; c++ {
		leaveOn(ts, workers[c])
	}
	m.FoldStats()
	return trc.Events(), m.Stats, StatsFromTrace(trc)
}

// TestSMPMergedStreamDeterministic is the observability determinism gate
// at cores=4: five runs of the four-worker crossing workload must merge
// to byte-identical event streams — not just matching counters, the full
// (Cycle, Core, Seq)-ordered sequence with symbols and payloads. Any
// goroutine-interleaving leak into event ordering or cycle stamps fails
// DeepEqual immediately.
func TestSMPMergedStreamDeterministic(t *testing.T) {
	const cores, iters = 4, 25
	evs0, stats0, fromTrace0 := smpMergedStream(t, cores, iters)
	if len(evs0) == 0 {
		t.Fatalf("workload recorded no events")
	}
	seen := make(map[int16]bool)
	for _, ev := range evs0 {
		seen[ev.Core] = true
	}
	for c := int16(0); c < cores; c++ {
		if !seen[c] {
			t.Fatalf("no events from core %d in the merged stream", c)
		}
	}
	if !reflect.DeepEqual(fromTrace0, stats0) {
		t.Fatalf("StatsFromTrace diverged at cores=%d:\n got  %+v\n want %+v",
			cores, fromTrace0, stats0)
	}
	for run := 1; run < 5; run++ {
		evs, stats, _ := smpMergedStream(t, cores, iters)
		if !reflect.DeepEqual(stats, stats0) {
			t.Fatalf("run %d stats diverged:\n got  %+v\n want %+v", run, stats, stats0)
		}
		if len(evs) != len(evs0) {
			t.Fatalf("run %d merged %d events, run 0 merged %d", run, len(evs), len(evs0))
		}
		if !reflect.DeepEqual(evs, evs0) {
			for i := range evs {
				if evs[i] != evs0[i] {
					t.Fatalf("run %d merged stream diverged at event %d:\n got  %+v\n want %+v",
						run, i, evs[i], evs0[i])
				}
			}
			t.Fatalf("run %d merged stream diverged", run)
		}
	}
}

// TestSMPLockReentrancy pins the global lock's reentrancy: nested
// acquisition by the owning thread must not deadlock, and the lock must
// hand over cleanly between threads.
func TestSMPLockReentrancy(t *testing.T) {
	ts := bootPair(t, ModeFull)
	m := ts.m
	m.EnableSMP(2)
	t0, e1 := ts.env.T, newWorker(m, 1)

	m.lockGlobal(t0)
	m.lockGlobal(t0) // reentrant: depth bump, no deadlock
	m.unlockGlobal(t0)

	released := make(chan struct{})
	go func() {
		m.lockGlobal(e1.T)
		m.unlockGlobal(e1.T)
		close(released)
	}()
	m.unlockGlobal(t0)
	<-released
}

// TestSMPCoreClocksIndependent asserts threads charge their own core's
// clock: work on core 1 must not advance core 0.
func TestSMPCoreClocksIndependent(t *testing.T) {
	ts := bootPair(t, ModeFull)
	m := ts.m
	m.EnableSMP(2)
	e1 := newWorker(m, 1)
	before0, before1 := m.CoreClock(0).Cycles(), m.CoreClock(1).Cycles()
	e1.Work(10_000)
	if got := m.CoreClock(0).Cycles(); got != before0 {
		t.Fatalf("core 0 clock moved by core 1 work: %d -> %d", before0, got)
	}
	if got := m.CoreClock(1).Cycles(); got <= before1 {
		t.Fatalf("core 1 clock did not advance")
	}
	if now := m.smpNow(); now < m.CoreClock(1).Cycles() {
		t.Fatalf("smpNow %d below core 1 clock", now)
	}
}
