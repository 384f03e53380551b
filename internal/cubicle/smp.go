package cubicle

import "cubicleos/internal/trace"

// A Monitor has one virtual clock and every Thread charges it; its threads
// are cooperative and stepped by the one goroutine that drives the monitor.
// What a multi-core deployment costs inside a monitor is libmpk's: a safe
// pkey_mprotect must synchronise every other core's view of the key before
// a retag takes effect. Host parallelism comes from shared-nothing shards,
// one system, one monitor and one goroutine each (siege.ParallelOpenLoop).
// See DESIGN.md §10.

// EnableSMP gives the simulated machine n cores, n-1 of them remote to
// whichever thread retags a page. Like EnableTracing it is boot wiring, not
// a runtime operation. With n == 1 (the default) nothing is charged.
func (m *Monitor) EnableSMP(n int) {
	if n < 1 {
		n = 1
	}
	m.smpN = n
}

// shootdown synchronises a page retag across cores, libmpk-style: a safe
// multi-threaded pkey_mprotect must update every other thread's view of
// the key state before the retag takes effect, an IPI-like round trip per
// remote core. The simulator models only that cost — ShootdownIPI per
// remote core — because there is no per-thread state to flush: every
// checked access re-reads the page's live (perm, key) word. Single-core
// machines charge nothing.
func (m *Monitor) shootdown(t *Thread, cub ID) {
	if m.smpN <= 1 {
		return
	}
	cost := m.Costs.ShootdownIPI * uint64(m.smpN-1)
	m.Clock.Charge(cost)
	m.note(trace.EvShootdown, t, cub, 0, 0, cost, "")
}
