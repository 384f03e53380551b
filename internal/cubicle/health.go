package cubicle

import (
	"errors"
	"fmt"
)

// Health is the supervision state of a cubicle. Cubicles boot Healthy;
// a contained fault moves the faulting cubicle to Quarantined (calls into
// it fail fast until the supervisor restarts it); exhausting the restart
// budget moves it to Dead permanently.
type Health uint8

const (
	// Healthy cubicles accept calls normally.
	Healthy Health = iota
	// Quarantined cubicles refuse calls until their backoff expires and
	// the supervisor restarts them.
	Quarantined
	// Dead cubicles exhausted their restart budget and never run again.
	Dead
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("Health(%d)", uint8(h))
}

// ErrQuarantined is the cause of a ContainedFault refusing a call into a
// quarantined cubicle whose restart backoff has not yet expired.
var ErrQuarantined = errors.New("cubicle is quarantined")

// ErrDead is the cause of a ContainedFault refusing a call into a cubicle
// that exhausted its restart budget.
var ErrDead = errors.New("cubicle is dead")

// ContainedFault is the typed error a caller receives when a callee
// cubicle faults (or is refused) under containment: the crossing unwound
// only to the trampoline frame, the caller's stack pointer and PKRU were
// restored, and windows opened by the aborted call were closed. The fault
// is attributable — Cubicle names the component at fault, never the
// caller.
type ContainedFault struct {
	Cubicle ID     // the faulted (or refused) callee
	Symbol  string // trampoline symbol of the aborted call
	Cause   error  // underlying fault, or ErrQuarantined/ErrDead
}

func (f *ContainedFault) Error() string {
	return fmt.Sprintf("contained fault: cubicle %d (%s): %v", f.Cubicle, f.Symbol, f.Cause)
}

// Unwrap exposes the underlying fault to errors.Is/errors.As.
func (f *ContainedFault) Unwrap() error { return f.Cause }

// BudgetFault is raised by the supervisor's watchdog when a crossing
// exceeds its virtual-cycle budget — the simulator's analogue of a
// component spinning without returning.
type BudgetFault struct {
	Cubicle ID
	Used    uint64
	Budget  uint64
	Reason  string
}

func (f *BudgetFault) Error() string {
	return fmt.Sprintf("budget fault: cubicle %d used %d of %d cycles: %s",
		f.Cubicle, f.Used, f.Budget, f.Reason)
}

// CatchContained runs fn and returns the ContainedFault it raised, or nil
// if it completed. Any other panic — including raw isolation faults, which
// only become ContainedFaults at a supervised crossing — propagates
// unchanged. Components use it to degrade gracefully when a dependency
// cubicle is down.
func CatchContained(fn func()) (cf *ContainedFault) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*ContainedFault)
			if !ok {
				panic(r)
			}
			cf = f
		}
	}()
	fn()
	return nil
}

// faultClass maps a contained cause to a constant class label used in
// trace events and supervisor counters.
func faultClass(err error) string {
	switch err.(type) {
	case *ProtectionFault:
		return "protection"
	case *CFIFault:
		return "cfi"
	case *APIError:
		return "api"
	case *BudgetFault:
		return "budget"
	}
	switch err {
	case ErrQuarantined:
		return "quarantined"
	case ErrDead:
		return "dead"
	}
	return "unknown"
}
