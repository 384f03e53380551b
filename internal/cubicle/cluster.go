package cubicle

import "cubicleos/internal/trace"

// This file is the monitor's cluster-facing surface: the hooks a
// load-balancer tier sitting *outside* the booted system uses to observe
// and account for whole-system health. A virtual cluster (internal/
// cluster) runs N independent single-core monitors; the balancer routes
// requests between them, drains a backend whose supervisor ladder turns
// unhealthy, and re-admits it once a restart brings it back. The
// balancer-side events (route, drain/readmit, failover) are noted on the
// backend's own monitor like any monitor event: each bumps its Stats row,
// which the fleet view merges, and lands in that backend's trace ring.
//
// All entry points here are harness context: the cluster driver drives
// each backend from a single goroutine, exactly like the siege drivers.

// HealthHook observes cubicle health-ladder transitions. It is invoked
// synchronously from inside the supervisor — while the monitor is mid-
// operation — so implementations must only record the transition (set
// flags, append to a queue) and never call back into the monitor.
type HealthHook func(name string, id ID, from, to Health)

// SetHealthHook installs fn to be called on every supervisor health
// transition (Healthy→Quarantined, Quarantined→Healthy on restart,
// Quarantined→Dead on budget exhaustion). A cluster balancer uses it to
// learn that a backend needs draining — or is ready for re-admission —
// without polling every cubicle each quantum. nil detaches.
func (m *Monitor) SetHealthHook(fn HealthHook) { m.healthHook = fn }

// notifyHealth fires the health hook for cubicle c's transition from old
// to new. Callers already updated c.health.
func (m *Monitor) notifyHealth(c *Cubicle, old, new Health) {
	if m.healthHook != nil && old != new {
		m.healthHook(c.Name, c.ID, old, new)
	}
}

// NoteRoute records one balancer routing decision that selected this
// system as the backend; policy is the balancer policy label (a constant
// string), backend this system's index in the cluster, and attempt the
// request attempt number (0 = first try).
func (m *Monitor) NoteRoute(policy string, backend int, attempt uint64) {
	m.note(trace.EvRoute, nil, ID(backend), 0, attempt, 0, policy)
}

// NoteDrain records a balancer health-ladder transition for this system:
// phase is "drain" when the balancer takes it out of rotation, "readmit"
// when it returns; deadline is the virtual-cycle drain deadline (0 on
// readmit). Drains counts both phases — the trace Name distinguishes
// them, and a drained backend that never comes back is visible as an odd
// count.
func (m *Monitor) NoteDrain(phase string, backend int, deadline uint64) {
	m.note(trace.EvDrain, nil, ID(backend), 0, deadline, 0, phase)
}

// NoteFailover records a request the balancer re-issued away from this
// system; reason is the constant label (retry/hedge/drain), attempt the
// attempt number of the re-issue.
func (m *Monitor) NoteFailover(reason string, backend int, attempt uint64) {
	m.note(trace.EvFailover, nil, ID(backend), 0, attempt, 0, reason)
}

// Kill quarantines the named cubicle as if it had just faulted — the
// harness-level backend-kill used by cluster failover scenarios. The
// cubicle takes the standard supervision path from there: exponential
// backoff, then a supervised restart (warm when a checkpoint exists) on
// the next admitted call. Returns false when the cubicle is unknown, not
// isolated, or the monitor is unsupervised.
func (s *Supervisor) Kill(name string, cause error) bool {
	c := s.m.byName[name]
	if c == nil || c.Kind != KindIsolated {
		return false
	}
	if cause == nil {
		cause = ErrQuarantined
	}
	s.quarantine(c.ID, cause)
	return true
}
