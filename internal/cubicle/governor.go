package cubicle

import "cubicleos/internal/trace"

// This file is the overload side of the monitor: the shed event a
// component notes when admission control refuses a request, and a
// bounded-retry helper for calls into a quarantined dependency.

// --- Admission-control and governance accounting -----------------------------

// NoteShed records one request refused by admission control in the current
// cubicle; reason is a constant label, status the HTTP status sent back.
func (e *Env) NoteShed(reason string, status uint64) {
	e.M.note(trace.EvShed, e.T, e.T.cur, 0, status, 0, reason)
}

// NoteIPC records one microkernel-baseline IPC from the current cubicle:
// name is the operation, payload the bytes marshalled, cost its charge.
func (e *Env) NoteIPC(name string, payload, cost uint64) {
	e.M.note(trace.EvIPC, e.T, e.T.cur, 0, payload, cost, name)
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

// RetryContained runs fn, retrying a call refused by a quarantined
// dependency (the supervisor restarts it once its backoff on the virtual
// clock expires) up to the policy's attempt budget, with exponential
// backoff charged to the virtual clock. Any other contained fault is a
// deterministic failure that retrying cannot help, so it returns at
// once. It returns nil on success, or the last ContainedFault.
func RetryContained(e *Env, p RetryPolicy, fn func()) *ContainedFault {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		cf := CatchContained(fn)
		if cf == nil {
			return nil
		}
		if attempt >= p.MaxAttempts || cf.Cause != ErrQuarantined {
			return cf
		}
		backoff := Backoff(p.BackoffBase, p.BackoffFactor, p.BackoffMax, attempt)
		e.M.Clock.Charge(backoff)
		e.M.note(trace.EvRetry, e.T, e.T.cur, 0, uint64(attempt), backoff, "")
	}
}
