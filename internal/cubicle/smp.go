package cubicle

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cubicleos/internal/cycles"
)

// This file is the monitor's SMP layer. A multi-core deployment gives the
// monitor one virtual clock per simulated core; each Thread is placed on a
// core and charges that core's clock, so threads running on real goroutine
// workers advance virtual time independently between synchronisation
// points (the quantum-barrier GVT rule of cycles.Machine).
//
// The monitor used to serialise every entry — checked memory access,
// trampoline crossing, window call, allocation — behind one reentrant big
// kernel lock. That lock is gone. The replacement is a lock hierarchy
// (documented in DESIGN.md §14) sized to what each path actually mutates:
//
//   - gmu, the global monitor lock, guards monitor-wide mutation: the page
//     table (Map/Unmap/MapAt), the key registry and LRU state, window and
//     pin state reachable from the trap-and-map search, supervisor health
//     transitions, restart and checkpoint machinery, and PKRU recomputation.
//     It is reentrant by thread because slow paths nest (a restart hook may
//     allocate, which may grow, which maps pages).
//   - each Cubicle carries an inner mu guarding cubicle-local mutable
//     state: its heap sub-allocator free lists and window descriptor
//     slots. The order is gmu BEFORE cub.mu, and multiple cubicle locks
//     in ascending ID order; taking gmu while holding any cubicle lock is
//     a deadlock waiting to happen and panics under EnableLockCheck.
//   - read-mostly metadata is epoch/RCU-published and read without any
//     lock: the page table is an atomic pointer to a table of atomic page
//     pointers, page (perm, key) metadata is one packed atomic word, and
//     per-core clocks are atomic words. The crossing fast path and the Env
//     accessors' page walk therefore take no shared lock at all.
//
// Everything above only arms itself in PARALLEL mode: SetThreadCore marks
// a thread as driven by its own goroutine worker, and the first such call
// flips the monitor into parallel mode. Outside parallel mode (all
// production deployments — the boot thread drives every core's work
// cooperatively) the lock helpers compile down to a single flag test and
// acquire nothing, which keeps the pre-SMP single-threaded fast path and
// its figures byte-identical, exactly as the old big lock's no-op path
// did — except that now multi-core production runs pay no mutex either.

// gLock is the monitor's global lock, reentrant by thread: the owning
// Thread may re-enter (restart hooks and trap handlers nest arbitrarily
// deep through the public API), and the depth counter is only ever touched
// by the current owner.
type gLock struct {
	mu    sync.Mutex
	owner atomic.Int64 // thread id + 1; -1 = monitor context (t == nil); 0 = unowned
	depth int32
}

// lockOwnerID returns the gLock identity of t. Monitor-context callers
// (t == nil: the loader, boot wiring, fold points) share one identity —
// at most one such goroutine may use the monitor at a time, which the
// single boot goroutine satisfies by construction.
func lockOwnerID(t *Thread) int64 {
	if t == nil {
		return -1
	}
	return int64(t.id) + 1
}

// lockGlobal takes the global monitor lock on behalf of thread t (nil for
// monitor context). Reentrant; a no-op outside parallel mode apart from
// the order bookkeeping EnableLockCheck asks for.
func (m *Monitor) lockGlobal(t *Thread) {
	if m.lockCheck {
		m.noteAcquire(t, lockSlotGlobal)
	}
	if !m.parallel {
		return
	}
	me := lockOwnerID(t)
	if m.gmu.owner.Load() == me {
		m.gmu.depth++
		return
	}
	m.gmu.mu.Lock()
	m.gmu.owner.Store(me)
}

// unlockGlobal releases one level of the global lock taken by lockGlobal.
func (m *Monitor) unlockGlobal(t *Thread) {
	if m.lockCheck {
		m.noteRelease(t, lockSlotGlobal)
	}
	if !m.parallel {
		return
	}
	if m.gmu.depth > 0 {
		m.gmu.depth--
		return
	}
	m.gmu.owner.Store(0)
	m.gmu.mu.Unlock()
}

// lockCub takes cubicle c's inner lock on behalf of t. Not reentrant; the
// documented order (gmu before any cub.mu, cubicle locks in ascending ID
// order) is enforced by EnableLockCheck.
func (m *Monitor) lockCub(t *Thread, c *Cubicle) {
	if m.lockCheck {
		m.noteAcquire(t, int32(c.ID))
	}
	if !m.parallel {
		return
	}
	c.mu.Lock()
}

// unlockCub releases cubicle c's inner lock.
func (m *Monitor) unlockCub(t *Thread, c *Cubicle) {
	if m.lockCheck {
		m.noteRelease(t, int32(c.ID))
	}
	if !m.parallel {
		return
	}
	c.mu.Unlock()
}

// lockSlotGlobal is the held-lock tag of the global lock in the order
// checker; cubicle locks use their non-negative cubicle ID.
const lockSlotGlobal int32 = -1

// EnableLockCheck arms the lock-order checker: every lockGlobal/lockCub
// acquisition is recorded per thread and a violation of the documented
// hierarchy panics immediately with both lock names. The checker works in
// and out of parallel mode (the order bookkeeping runs even where the
// mutexes compile to no-ops), so single-threaded fuzzing exercises the
// same discipline the contention suite runs under race. Boot-time wiring.
func (m *Monitor) EnableLockCheck() { m.lockCheck = true }

// noteAcquire records thread t acquiring the given lock slot and panics on
// a hierarchy violation. Monitor-context acquisitions (t == nil) are
// tracked on a dedicated shelf; only one monitor-context goroutine exists.
func (m *Monitor) noteAcquire(t *Thread, slot int32) {
	held := &m.heldBoot
	if t != nil {
		held = &t.held
	}
	if slot == lockSlotGlobal {
		for _, h := range *held {
			if h != lockSlotGlobal {
				panic(fmt.Sprintf(
					"cubicle: lock-order violation: global lock acquired while holding cubicle %d lock", h))
			}
		}
	} else {
		for _, h := range *held {
			if h == slot {
				panic(fmt.Sprintf("cubicle: lock-order violation: cubicle %d lock acquired twice", slot))
			}
			if h != lockSlotGlobal && h >= slot {
				panic(fmt.Sprintf(
					"cubicle: lock-order violation: cubicle %d lock acquired while holding cubicle %d lock", slot, h))
			}
		}
	}
	*held = append(*held, slot)
}

// noteRelease records thread t releasing the given lock slot (innermost
// first; releasing a lock that is not the most recent acquisition of that
// slot kind is itself a discipline violation and panics).
func (m *Monitor) noteRelease(t *Thread, slot int32) {
	held := &m.heldBoot
	if t != nil {
		held = &t.held
	}
	for i := len(*held) - 1; i >= 0; i-- {
		if (*held)[i] == slot {
			*held = append((*held)[:i], (*held)[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("cubicle: lock-order violation: released lock %d that is not held", slot))
}

// st routes a Stats update made on behalf of thread t. Parallel threads
// stage counters in their own Stats shard (merged by FoldStats at a GVT
// barrier or test quiescence); everything else — production deployments,
// boot wiring, monitor-context work — writes m.Stats directly, exactly as
// before, so no reader of m.Stats changes behaviour outside parallel mode.
func (m *Monitor) st(t *Thread) *Stats {
	if t != nil && t.parallel {
		return &t.stats
	}
	return &m.Stats
}

// FoldStats merges every parallel thread's staged counter shard into
// m.Stats and zeroes the shards, returning m.Stats. Call it only at a
// quiescent point (a GVT barrier, or after all worker goroutines joined):
// folding mid-flight would race with the shards' owners. Outside parallel
// mode there is nothing staged and the call is a cheap no-op.
func (m *Monitor) FoldStats() *Stats {
	m.lockGlobal(nil)
	for _, t := range m.threads {
		if t.parallel {
			m.Stats.Merge(&t.stats)
			t.stats.Reset()
		}
	}
	m.unlockGlobal(nil)
	return &m.Stats
}

// EnableSMP gives the simulated machine n cores: core 0 keeps the boot
// clock (m.Clock), cores 1..n-1 get fresh clocks. Call it at boot, before
// any worker goroutine runs — like EnableTracing it is wiring, not a
// runtime operation. With n == 1 (the default) every SMP hook is a no-op
// and behaviour is byte-identical to a pre-SMP monitor.
func (m *Monitor) EnableSMP(n int) {
	if n < 1 {
		n = 1
	}
	m.smpN = n
	m.coreClks = make([]*cycles.Clock, n)
	m.coreClks[0] = m.Clock
	for i := 1; i < n; i++ {
		m.coreClks[i] = &cycles.Clock{}
	}
	m.machine = cycles.MachineOver(m.coreClks...)
	if m.trc != nil {
		m.installCoreResolver()
	}
}

// Cores returns the number of simulated cores (1 unless EnableSMP ran).
func (m *Monitor) Cores() int {
	if m.smpN < 1 {
		return 1
	}
	return m.smpN
}

// CoreClock returns core i's virtual clock.
func (m *Monitor) CoreClock(i int) *cycles.Clock {
	if m.coreClks == nil {
		if i == 0 {
			return m.Clock
		}
		panic("cubicle: CoreClock on a single-core monitor")
	}
	return m.coreClks[i]
}

// Machine returns the cycles.Machine over the monitor's core clocks (a
// single-core machine over the boot clock unless EnableSMP ran). The
// scheduler drives its quantum barriers.
func (m *Monitor) Machine() *cycles.Machine {
	if m.machine == nil {
		m.machine = cycles.MachineOver(m.Clock)
	}
	return m.machine
}

// SetThreadCore places thread t on the given core: from now on the thread
// charges that core's clock. It also marks the thread as PARALLEL — driven
// by its own goroutine worker — and flips the monitor into parallel mode,
// arming the lock hierarchy, the staged stats shards and the epoch-based
// PKRU scheme for every monitor operation from here on. Boot-time wiring,
// strictly before workers run: the parallel flag is published by the
// happens-before edge of starting the worker goroutines.
//
// Production deployments never call this — the boot thread drives all
// cores' work cooperatively — so they never enter parallel mode and keep
// the lock-free single-threaded behaviour bit-identical to the legacy
// monitor.
func (m *Monitor) SetThreadCore(t *Thread, core int) {
	if core < 0 || core >= m.Cores() {
		panic("cubicle: SetThreadCore core out of range")
	}
	t.core = core
	t.clk = m.CoreClock(core)
	t.parallel = true
	if !m.parallel {
		m.parallel = true
		// Page frames must not be recycled while lock-free readers may
		// still hold pointers to them: let the GC provide the RCU grace
		// period instead of the allocator pool.
		m.AS.SetPooling(false)
	}
}

// clkOf returns the clock a monitor operation on behalf of thread t
// charges: the thread's core clock, or the boot clock for monitor-context
// work (t == nil — supervisor reclamation, key evictions at boot). In
// parallel mode monitor-context charges go to a dedicated monitor clock
// instead: m.Clock belongs to whichever worker owns core 0, and the
// single-writer discipline of cycles.Clock must hold. All such charges
// happen under gmu, which serialises the monitor clock's writers.
func (m *Monitor) clkOf(t *Thread) *cycles.Clock {
	if t == nil || t.clk == nil {
		if m.parallel {
			return &m.monClk
		}
		return m.Clock
	}
	return t.clk
}

// coreOfThread is the simulated core t runs on (0 for monitor context).
func coreOfThread(t *Thread) int {
	if t == nil {
		return 0
	}
	return t.core
}

// tidOf is the trace thread ID of t (-1 for monitor context).
func tidOf(t *Thread) int {
	if t == nil {
		return -1
	}
	return t.id
}

// smpNow is global virtual time as observed from inside the monitor: the
// boot clock on a single-core machine, the maximum over core clocks on an
// SMP one. Per-core clocks publish every advance with an atomic store and
// smpNow reads them with atomic loads, so the max is safe from any thread
// without a lock; it is a conservative (never ahead of any core's own
// view) GVT estimate, which is exactly what supervision timestamps
// (quarantine backoffs, restart windows) need to stay consistent across
// cores.
func (m *Monitor) smpNow() uint64 {
	if m.smpN <= 1 {
		return m.Clock.Cycles()
	}
	max := uint64(0)
	for _, c := range m.coreClks {
		if v := c.Cycles(); v > max {
			max = v
		}
	}
	return max
}

// shootdown synchronises a page retag across cores, libmpk-style: a safe
// multi-threaded pkey_mprotect must update every other thread's view of
// the key state before the retag takes effect, an IPI-like round trip per
// remote core. The simulator models only that cost — ShootdownIPI per
// remote core, charged to the retagging thread — because there is no
// per-thread state to flush: every checked access re-reads the page's live
// (perm, key) word. Single-core machines charge nothing, keeping their
// figures byte-identical to the pre-SMP cost model.
func (m *Monitor) shootdown(t *Thread, cub ID) {
	if m.smpN <= 1 {
		return
	}
	cost := m.Costs.ShootdownIPI * uint64(m.smpN-1)
	m.clkOf(t).Charge(cost)
	m.st(t).TLBShootdowns++
	if m.trc != nil {
		m.trc.Shootdown(tidOf(t), int(cub), cost)
	}
}

// installCoreResolver reshards the tracer over the per-core clocks and
// points it at the monitor's thread placement, so events route to the
// recording core's lock-free ring shard and are stamped with that core's
// clock.
func (m *Monitor) installCoreResolver() {
	m.trc.SetCores(m.coreClks, func(tid int) int {
		if tid >= 0 && tid < len(m.threads) {
			return m.threads[tid].core
		}
		return 0
	})
}
