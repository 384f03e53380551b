package cubicle

import "cubicleos/internal/cycles"

// This file is the monitor's SMP layer. A multi-core deployment gives the
// monitor one virtual clock per simulated core; each Thread is placed on a
// core and charges that core's clock, so virtual time advances independently
// per core between synchronisation points (the quantum-barrier GVT rule of
// cycles.Machine), and every page retag pays a cross-core shootdown.
//
// Concurrency contract: a Monitor, its Threads and its Tracer are driven by
// one goroutine at a time. Threads on different cores are stepped
// cooperatively by that goroutine; host parallelism comes from shared-nothing
// shards, one system and one monitor each (siege.ParallelOpenLoop,
// uksched.SMP). See DESIGN.md §10.

// EnableSMP gives the simulated machine n cores: core 0 keeps the boot
// clock (m.Clock), cores 1..n-1 get fresh clocks. Like EnableTracing it is
// boot wiring, not a runtime operation. With n == 1 (the default) every SMP
// hook is a no-op and behaviour is byte-identical to a pre-SMP monitor.
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
// charges that core's clock and its trace events land in that core's shard.
func (m *Monitor) SetThreadCore(t *Thread, core int) {
	if core < 0 || core >= m.Cores() {
		panic("cubicle: SetThreadCore core out of range")
	}
	t.core = core
	t.clk = m.CoreClock(core)
}

// clkOf returns the clock a monitor operation on behalf of thread t
// charges: the thread's core clock, or the boot clock for monitor-context
// work (t == nil — supervisor reclamation, key evictions at boot).
func (m *Monitor) clkOf(t *Thread) *cycles.Clock {
	if t == nil || t.clk == nil {
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
// SMP one — what supervision timestamps (quarantine backoffs, restart
// windows) need to stay consistent across cores.
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
	m.Stats.TLBShootdowns++
	if m.trc != nil {
		m.trc.Shootdown(tidOf(t), int(cub), cost)
	}
}

// installCoreResolver reshards the tracer over the per-core clocks and
// points it at the monitor's thread placement, so events route to the
// recording core's ring shard and are stamped with that core's clock.
func (m *Monitor) installCoreResolver() {
	m.trc.SetCores(m.coreClks, func(tid int) int {
		if tid >= 0 && tid < len(m.threads) {
			return m.threads[tid].core
		}
		return 0
	})
}
