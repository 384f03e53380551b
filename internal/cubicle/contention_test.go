package cubicle

import (
	"testing"

	"cubicleos/internal/vm"
)

// This file is the interleaved-thread stress suite: threads stepped
// round-robin by the test goroutine (the concurrency contract of
// DESIGN.md §10) hammer crossings, window operations, trap-and-map retags
// with shootdowns, the per-cubicle heap allocator and supervised restarts. The assertions are exact: counters
// balance against the known per-thread operation counts, allocator
// accounting balances to the byte, and the clock advances.

// TestContentionCrossingsWindowsRetags is the main stress: four threads each
// ping-pong ownership of their own page with BAR (every iteration crosses, traps, retags and shoots down), churn their window,
// and churn the shared FOO heap allocator. Counter conservation is exact:
// each iteration contributes precisely one crossing, two faults, two
// retags, two shootdowns and two window ops.
func TestContentionCrossingsWindowsRetags(t *testing.T) {
	const cores, iters = 4, 200
	ts := bootPair(t, ModeFull)
	m := ts.m
	m.EnableSMP(cores)
	barID := ts.cubs["BAR"].ID
	barH := m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")

	workers := make([]*Env, cores)
	addrs := make([]vm.Addr, cores)
	wids := make([]WID, cores)
	for c := range workers {
		workers[c] = newWorker(m)
		// Page-sized buffers: each thread retags its own page, so the
		// expected retag count is exact.
		addrs[c] = ts.heapIn(t, "FOO", 4096)
	}
	base := m.Stats // boot-time counters; Calls map not asserted

	var last [cores]uint64
	for c := 0; c < cores; c++ {
		last[c] = m.Clock.Cycles()
		e := workers[c]
		enterOn(ts, e, "FOO")
		wids[c] = e.WindowInit()
		e.WindowAdd(wids[c], addrs[c], 64)
		e.WindowOpen(wids[c], barID)
	}
	roundRobin(cores, iters, func(c, i int) {
		e, wid := workers[c], wids[c]
		before := m.Stats
		// Crossing + trap: BAR's store retags the page to BAR.
		barH.Call(e, uint64(addrs[c]), uint64(i%64))
		// Owner store traps the page back: second retag + shootdown.
		e.StoreByte(addrs[c], byte(i))
		e.WindowClose(wid, barID)
		e.WindowOpen(wid, barID)
		// Allocator churn on the heap all four threads share: the block
		// must come back intact (overlapping handouts would corrupt it).
		blk := e.HeapAlloc(96)
		e.StoreByte(blk, byte(c+1))
		if got := e.LoadByte(blk); got != byte(c+1) {
			t.Errorf("worker %d: allocator handed out an overlapping block", c)
		}
		e.HeapFree(blk)

		d := [5]uint64{m.Stats.CallsTotal - before.CallsTotal, m.Stats.Faults - before.Faults,
			m.Stats.Retags - before.Retags, m.Stats.TLBShootdowns - before.TLBShootdowns,
			m.Stats.WindowOps - before.WindowOps}
		if d != [5]uint64{1, 2, 2, 2, 2} {
			t.Fatalf("core %d iteration %d: calls/faults/retags/shootdowns/window ops = %v, want [1 2 2 2 2]", c, i, d)
		}
		if now := m.Clock.Cycles(); now <= last[c] {
			t.Fatalf("worker %d: clock did not advance over iteration %d: %d -> %d", c, i, last[c], now)
		} else {
			last[c] = now
		}
	})
	for c := range workers {
		leaveOn(ts, workers[c])
	}

	// Per worker: WindowInit+Add+Open at setup, Close+Open per iteration.
	if got, want := m.Stats.WindowOps-base.WindowOps, uint64(cores*(3+2*iters)); got != want {
		t.Errorf("WindowOps delta = %d, want %d", got, want)
	}
	if got, want := m.Stats.CallsTotal-base.CallsTotal, uint64(cores*iters); got != want {
		t.Errorf("CallsTotal delta = %d, want %d", got, want)
	}
}

// TestContentionAllocator hammers one cubicle's sub-allocator from four
// threads in turn — mixed sizes force both the free-list fit and the
// page-grow path — and the accounting must balance to the byte when
// everything is freed.
func TestContentionAllocator(t *testing.T) {
	const cores, iters = 4, 300
	ts := bootPair(t, ModeFull)
	m := ts.m
	m.EnableSMP(cores)

	workers := make([]*Env, cores)
	blocks := make([][]vm.Addr, cores)
	for c := range workers {
		workers[c] = newWorker(m)
		enterOn(ts, workers[c], "FOO")
	}
	liveBase := m.cubicle(ts.cubs["FOO"].ID).heap.liveBytes

	roundRobin(cores, iters, func(c, i int) {
		e, tag := workers[c], byte(c+1)
		size := uint64(16 + (i%40)*67)
		a := e.HeapAlloc(size)
		e.Memset(a, tag, size)
		blocks[c] = append(blocks[c], a)
		if i%3 == 2 {
			// Free the oldest live block, verifying the tag first: an
			// overlapping handout to another thread would have scribbled
			// over it.
			b := blocks[c][0]
			blocks[c] = blocks[c][1:]
			if got := e.LoadByte(b); got != tag {
				t.Errorf("worker %d: block %#x corrupted (tag %#x)", c, uint64(b), got)
			}
			e.HeapFree(b)
		}
	})
	for c, e := range workers {
		for _, b := range blocks[c] {
			if got := e.LoadByte(b); got != byte(c+1) {
				t.Errorf("worker %d: block %#x corrupted at teardown", c, uint64(b))
			}
			e.HeapFree(b)
		}
		leaveOn(ts, e)
	}
	if got := m.cubicle(ts.cubs["FOO"].ID).heap.liveBytes; got != liveBase {
		t.Errorf("allocator accounting off after interleaved churn: live %d, want %d", got, liveBase)
	}
}

// TestContentionRestartStorm restarts BAR under fire: three threads cross
// into BAR in turn while the boot thread forces a restart between every two
// crossings. Each restart reclaims the BAR stacks all three threads have
// cached, so every crossing after it runs on a freshly mapped one; every
// call must complete and be counted exactly once.
func TestContentionRestartStorm(t *testing.T) {
	const workersN, iters = 3, 150
	ts := bootPair(t, ModeFull)
	m := ts.m
	m.EnableSMP(workersN + 1)
	policy := DefaultRestartPolicy()
	policy.MaxRestarts = 0 // unlimited: the storm must not exhaust the budget
	m.EnableContainment(policy)
	bar := ts.cubs["BAR"]
	barID := bar.ID
	barH := m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")

	workers := make([]*Env, workersN)
	addrs := make([]vm.Addr, workersN)
	for c := range workers {
		workers[c] = newWorker(m)
		addrs[c] = ts.heapIn(t, "FOO", 4096)
	}
	base := m.Stats

	for c, e := range workers {
		enterOn(ts, e, "FOO")
		wid := e.WindowInit()
		e.WindowAdd(wid, addrs[c], 64)
		e.WindowOpen(wid, barID)
	}
	restarts := 0
	roundRobin(workersN, iters, func(c, i int) {
		e := workers[c]
		barH.Call(e, uint64(addrs[c]), uint64(i%64))
		e.StoreByte(addrs[c], byte(i))
		if !m.sup.restart(bar) {
			t.Fatalf("restart refused with no frame inside BAR (core %d, iteration %d)", c+1, i)
		}
		restarts++
	})
	for _, e := range workers {
		leaveOn(ts, e)
	}

	if delta := m.Stats.CallsTotal - base.CallsTotal; delta != workersN*iters {
		t.Errorf("CallsTotal delta = %d, want %d: restarts lost or duplicated crossings",
			delta, workersN*iters)
	}
	if m.Stats.Restarts-base.Restarts != uint64(restarts) {
		t.Errorf("Restarts = %d, want %d", m.Stats.Restarts-base.Restarts, restarts)
	}
	if h := bar.Health(); h != Healthy {
		t.Errorf("BAR health after storm = %v, want Healthy", h)
	}
	// BAR must still serve calls after the storm.
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		e.WindowAdd(wid, addrs[0], 64)
		e.WindowOpen(wid, barID)
		if rets := barH.Call(e, uint64(addrs[0]), 7); rets[0] != 1 {
			t.Errorf("post-storm call returned %v", rets)
		}
	})
}
