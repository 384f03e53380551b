package cubicle

import (
	"encoding/binary"
	"testing"

	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// newWorker creates a thread with its own Env.
func newWorker(m *Monitor) *Env {
	return m.NewEnv(m.NewThread())
}

// enterOn switches a worker thread into the named cubicle the way the
// boot loader enters application mains.
func enterOn(ts *testSystem, e *Env, name string) {
	cub := ts.cubs[name]
	m := ts.m
	e.T.pushFrame(cub.ID, true)
	if m.Mode.MPKEnabled() {
		m.wrpkru(e.T, m.pkruFor(cub.ID))
	}
}

func leaveOn(ts *testSystem, e *Env) {
	e.T.popFrame()
}

// roundRobin is how one goroutine drives several threads: it steps every
// worker once per iteration, in worker order.
func roundRobin(cores, iters int, step func(c, i int)) {
	for i := 0; i < iters; i++ {
		for c := 0; c < cores; c++ {
			step(c, i)
		}
	}
}

// TestShootdownChargesRemoteCores is the unit contract of the
// libmpk-style retag sync: on a 2-core monitor a shootdown charges
// ShootdownIPI per remote core and counts one shootdown. It models the
// cost only; the simulator has no per-thread translation state to
// invalidate.
func TestShootdownChargesRemoteCores(t *testing.T) {
	ts := bootPair(t, ModeFull)
	m := ts.m
	m.EnableSMP(2)
	t0 := ts.env.T

	before := m.Clock.Cycles()
	m.shootdown(t0, ts.cubs["FOO"].ID)

	wantCost := m.Costs.ShootdownIPI // one remote core
	if got := m.Clock.Cycles() - before; got != wantCost {
		t.Fatalf("shootdown charged %d cycles, want %d", got, wantCost)
	}
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

// TestSMPRetagShootsDownEndToEnd drives a real trap-and-map retag on a
// 2-core machine and asserts the retag carried a shootdown: the counter
// moved, and the trace recorded it.
func TestSMPRetagShootsDownEndToEnd(t *testing.T) {
	ts := bootPair(t, ModeFull)
	m := ts.m
	trc := m.EnableTracing(1 << 12)
	m.EnableSMP(2)
	e1 := newWorker(m)

	addr := ts.heapIn(t, "FOO", 64)
	// A crossing on a second thread, so the trace holds events from two.
	m.MustResolve(MonitorID, "FOO", "foo_noop").Call(e1)

	barID := ts.cubs["BAR"].ID
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		e.WindowAdd(wid, addr, 64)
		e.WindowOpen(wid, barID)
		h := m.MustResolve(e.Cubicle(), "BAR", "bar")
		h.Call(e, uint64(addr), 3) // BAR's store traps and retags the page
	})

	if m.Stats.Retags == 0 {
		t.Fatalf("workload performed no retag")
	}
	if m.Stats.TLBShootdowns == 0 {
		t.Fatalf("SMP retag recorded no shootdown")
	}
	for _, ev := range trc.Events() {
		if ev.Kind == trace.EvShootdown {
			return
		}
	}
	t.Fatal("the trace holds no shootdown event")
}

// smpRun is what one run of smpPingPong leaves behind: its digest — the
// trace stream folded as it was recorded (which fixes every counter row,
// note's table derives them), then the clock after each worker's last
// step — and its live counters.
type smpRun struct {
	digest uint64
	stats  Stats

	// The system itself and the per-worker buffers, for callers that inspect
	// memory afterwards.
	ts    *testSystem
	addrs []vm.Addr
}

// smpPingPong runs the retag ping-pong with one thread per core, stepped
// round-robin: thread c enters FOO and opens a window on its own size-byte
// buffer to BAR — the three set-up calls interleaved across threads too —
// then alternates BAR-writes (retag to BAR) with its own stores (retag back
// to FOO), so every iteration crosses cubicles, traps, retags and shoots
// down. Page-sized buffers give every thread its own page; 64-byte ones share
// a single heap page, so the threads retag it out from under each other.
func smpPingPong(t *testing.T, cores, iters int, size uint64) smpRun {
	t.Helper()
	ts := bootPair(t, ModeFull)
	m := ts.m
	trc := m.EnableTracing(64)
	trc.StartDigest()
	m.EnableSMP(cores)
	barID := ts.cubs["BAR"].ID
	barH := m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")

	workers := make([]*Env, cores)
	addrs := make([]vm.Addr, cores)
	wids := make([]WID, cores)
	for c := range workers {
		workers[c] = newWorker(m)
		addrs[c] = ts.heapIn(t, "FOO", size)
	}
	roundRobin(cores, 4, func(c, step int) {
		e := workers[c]
		switch step {
		case 0:
			enterOn(ts, e, "FOO")
		case 1:
			wids[c] = e.WindowInit()
		case 2:
			e.WindowAdd(wids[c], addrs[c], 64)
		case 3:
			e.WindowOpen(wids[c], barID)
		}
	})
	last := make([]uint64, cores)
	roundRobin(cores, iters, func(c, i int) {
		e := workers[c]
		barH.Call(e, uint64(addrs[c]), uint64(i%64))
		e.StoreByte(addrs[c], byte(i))
		if now := m.Clock.Cycles(); now <= last[c] {
			t.Fatalf("worker %d: clock did not advance over iteration %d: %d -> %d", c, i, last[c], now)
		} else {
			last[c] = now
		}
	})
	for c := range workers {
		leaveOn(ts, workers[c])
	}
	h := trc.Digest()
	for _, c := range last {
		h = trace.FNV(h, binary.LittleEndian.AppendUint64(nil, c))
	}
	return smpRun{digest: h, stats: m.Stats, ts: ts, addrs: addrs}
}

// TestSMPParallelRetagsPinned is the monitor-level determinism gate:
// two interleaved threads hammer cross-cubicle calls and trap-and-map retags
// of their own pages, and the run's clocks, stats and events match their
// pinned digest.
func TestSMPParallelRetagsPinned(t *testing.T) {
	r := smpPingPong(t, 2, 40, 4096)
	if want := uint64(0x6470e0531749ae23); r.digest != want {
		t.Errorf("digest %#x, want %#x", r.digest, want)
	}
	if r.stats.TLBShootdowns == 0 {
		t.Fatalf("workload produced no shootdowns")
	}
	if r.stats.CallsTotal == 0 || r.stats.Retags == 0 {
		t.Fatalf("workload too idle: %+v", r.stats)
	}
}

// TestSMPSharedPageRetagsPinned is the contended shape: both threads'
// 64-byte buffers sit on ONE heap page, so each thread's trap retags the page
// the other thread last held. One goroutine drives both threads, so their
// retags are ordered by program order and the run is held to a pinned
// digest like the disjoint-page shape — on top of the conservation laws:
// no call, window op or store is lost, every trap is answered by exactly
// one retag and one shootdown, and nothing is denied.
func TestSMPSharedPageRetagsPinned(t *testing.T) {
	const iters = 40
	r := smpPingPong(t, 2, iters, 64)
	if want := uint64(0xf18f1f1a308fa034); r.digest != want {
		t.Errorf("digest %#x, want %#x", r.digest, want)
	}
	if r.addrs[0].PageNum() != r.addrs[1].PageNum() {
		t.Fatalf("buffers %#x and %#x do not share a page", r.addrs[0], r.addrs[1])
	}
	foo, barID := r.ts.cubs["FOO"].ID, r.ts.cubs["BAR"].ID
	st := r.stats
	if st.CallsTotal != 2*iters || st.Calls[Edge{From: foo, To: barID}] != 2*iters {
		t.Fatalf("calls = %d (%v), want %d FOO→BAR", st.CallsTotal, st.Calls, 2*iters)
	}
	if st.WindowOps != 6 {
		t.Fatalf("WindowOps = %d, want 6", st.WindowOps)
	}
	if st.Retags == 0 || st.DeniedFaults != 0 || st.Faults != st.Retags || st.TLBShootdowns != st.Retags {
		t.Fatalf("faults/denied/retags/shootdowns = %d/%d/%d/%d, want n/0/n/n",
			st.Faults, st.DeniedFaults, st.Retags, st.TLBShootdowns)
	}
	// Every store landed, whichever key the page carried at the time.
	r.ts.enter(t, "FOO", func(e *Env) {
		for c := 0; c < 2; c++ {
			if got := e.LoadByte(r.addrs[c]); got != byte(iters-1) {
				t.Fatalf("worker %d's last store reads %#x, want %#x", c, got, byte(iters-1))
			}
			for off := uint64(1); off < iters; off++ {
				if got := e.LoadByte(r.addrs[c].Add(off)); got != 0xAA {
					t.Fatalf("BAR's store at worker %d +%d reads %#x", c, off, got)
				}
			}
		}
	})
}
