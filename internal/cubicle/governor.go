package cubicle

import (
	"fmt"

	"cubicleos/internal/trace"
)

// This file is the resource-governance layer: per-cubicle memory quotas
// enforced at the monitor's page-granting primitive, virtual-clock request
// deadlines propagated across trampoline crossings, and a bounded-retry
// helper for transient overload faults. Like tracing and containment the
// whole layer is opt-in: with no quota set and no deadline armed every
// hot path pays one comparison against zero.

// QuotaFault is raised when a memory allocation would push a cubicle past
// its configured quota. It is a transient overload condition, not a bug:
// under supervision it is contained at the crossing (with rollback) but
// does not quarantine the cubicle — the caller is expected to shed load
// or retry after freeing memory.
type QuotaFault struct {
	Cubicle  ID     // cubicle whose quota was exhausted
	Resource string // "pages" (monitor quota) or "arena" (ualloc client quota)
	Used     uint64 // usage the refused allocation would have reached
	Limit    uint64
}

func (f *QuotaFault) Error() string {
	return fmt.Sprintf("quota fault: cubicle %d %s quota exhausted (%d of %d bytes)",
		f.Cubicle, f.Resource, f.Used, f.Limit)
}

// DeadlineFault is raised when a thread crosses a cubicle boundary (or
// charges modelled work) after its request deadline already passed: the
// remaining work is abandoned because no one is waiting for the answer.
// Like QuotaFault it is transient — contained with rollback, never
// quarantined.
type DeadlineFault struct {
	Cubicle  ID // cubicle where the expiry was detected
	Deadline uint64
	Now      uint64
}

func (f *DeadlineFault) Error() string {
	return fmt.Sprintf("deadline fault: cubicle %d at cycle %d, deadline was %d (%d over)",
		f.Cubicle, f.Now, f.Deadline, f.Now-f.Deadline)
}

// --- Per-cubicle memory quotas ----------------------------------------------

// SetMemQuota caps the bytes of pages the monitor will grant cubicle id
// (0 = unlimited). The cap applies to MapOwned — heap arenas, stacks and
// window pins all draw from it; pages reclaimed by a supervisor restart
// are credited back.
func (m *Monitor) SetMemQuota(id ID, bytes uint64) {
	if bytes == 0 {
		delete(m.memQuota, id)
		return
	}
	m.memQuota[id] = bytes
}

// --- Deadlines ---------------------------------------------------------------

// SetDeadline arms a virtual-clock deadline for the current request on
// this thread: crossings made below the current frame after the clock
// passes d raise a *DeadlineFault. The frame gate means the cubicle that
// set the deadline always regains control to send its error response.
func (e *Env) SetDeadline(d uint64) {
	e.T.deadline = d
	e.T.deadlineFrame = len(e.T.frames)
}

// ClearDeadline disarms the thread's deadline.
func (e *Env) ClearDeadline() {
	e.T.deadline = 0
	e.T.deadlineFrame = 0
}

// Now returns the virtual clock.
func (e *Env) Now() uint64 { return e.M.Clock.Cycles() }

// checkDeadline raises a DeadlineFault when thread t's armed deadline has
// passed. It only fires below the frame that armed the deadline, so the
// arming cubicle itself is never interrupted — only work it delegated.
func (m *Monitor) checkDeadline(t *Thread) {
	if t.deadline == 0 || len(t.frames) <= t.deadlineFrame {
		return
	}
	now := m.Clock.Cycles()
	if now < t.deadline {
		return
	}
	f := &DeadlineFault{Cubicle: t.cur, Deadline: t.deadline, Now: now}
	t.deadline = 0 // one fault per armed deadline; the caller re-arms per request
	m.note(trace.EvDeadline, t, t.cur, 0, f.Deadline, now-f.Deadline, "")
	panic(f)
}

// --- Admission-control and governance accounting -----------------------------

// NoteShed records one request refused by admission control in the current
// cubicle; reason is a constant label, status the HTTP status sent back.
func (e *Env) NoteShed(reason string, status uint64) {
	e.M.note(trace.EvShed, e.T, e.T.cur, 0, status, 0, reason)
}

// --- Bounded retry -----------------------------------------------------------

// RetryPolicy bounds RetryContained. All durations are virtual cycles.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	MaxAttempts int
	// BackoffBase is charged to the virtual clock before the first retry;
	// each further retry multiplies it by BackoffFactor up to BackoffMax.
	BackoffBase   uint64
	BackoffFactor uint64
	BackoffMax    uint64
}

// DefaultRetryPolicy returns a policy matched to the default supervision
// backoffs: three tries with backoff long enough that a quarantined
// dependency's first restart window has expired by the second attempt.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BackoffBase: 200_000, BackoffFactor: 4, BackoffMax: 60_000_000}
}

// retryable reports whether a contained fault is a transient overload
// condition worth retrying: a quota refusal (memory may be freed), or a
// quarantined dependency (the supervisor restarts it once the backoff on
// the virtual clock expires). Protection/CFI/API faults and dead cubicles
// are deterministic failures — retrying cannot help.
func retryable(cf *ContainedFault) bool {
	if cf.Cause == ErrQuarantined {
		return true
	}
	_, quota := cf.Cause.(*QuotaFault)
	return quota
}

// IsTransient reports whether a contained fault is an overload condition
// (quota refusal or deadline expiry) rather than a component failure.
// Callers use it to pick a shed response (429/503 + Retry-After) over an
// error path, since the callee was not quarantined and will serve again.
func IsTransient(cf *ContainedFault) bool {
	switch cf.Cause.(type) {
	case *QuotaFault, *DeadlineFault:
		return true
	}
	return false
}

// RetryContained runs fn, retrying transient contained faults up to the
// policy's attempt budget with exponential backoff charged to the virtual
// clock. It returns nil on success, or the last ContainedFault.
func RetryContained(e *Env, p RetryPolicy, fn func()) *ContainedFault {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		cf := CatchContained(fn)
		if cf == nil {
			return nil
		}
		if attempt >= p.MaxAttempts || !retryable(cf) {
			return cf
		}
		backoff := Backoff(p.BackoffBase, p.BackoffFactor, p.BackoffMax, attempt)
		e.M.Clock.Charge(backoff)
		e.M.note(trace.EvRetry, e.T, e.T.cur, 0, uint64(attempt), backoff, "")
	}
}
