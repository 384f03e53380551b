package cubicle

import (
	"fmt"

	"cubicleos/internal/mpk"
	"cubicleos/internal/vm"
)

// ProtectionFault is raised when a memory access violates the cubicle
// isolation policy: the access was denied by the page-table permissions or
// by MPK, and the monitor's trap-and-map handler found no open window
// authorising it. In hardware this is a fatal page fault delivered to the
// faulting component; in the simulator it is a panic with this value,
// recovered and converted to an error at the system boundary.
type ProtectionFault struct {
	Addr     vm.Addr
	Access   mpk.AccessKind
	Cubicle  ID // cubicle whose privileges the faulting code ran with
	Owner    ID // owner of the faulting page (vm.NoOwner if runtime)
	PageType vm.PageType
	Reason   string
}

func (f *ProtectionFault) Error() string {
	return fmt.Sprintf("protection fault: cubicle %d %s at %#x (page owner %d, type %s): %s",
		f.Cubicle, f.Access, uint64(f.Addr), f.Owner, f.PageType, f.Reason)
}

// CFIFault is raised when control-flow integrity is violated: a call or
// return across cubicles that does not go through the intended trampoline
// entry point (§5.5).
type CFIFault struct {
	Cubicle ID
	Target  string
	Reason  string
}

func (f *CFIFault) Error() string {
	return fmt.Sprintf("CFI fault: cubicle %d calling %q: %s", f.Cubicle, f.Target, f.Reason)
}

// APIError reports misuse of the monitor API by a cubicle — for example
// manipulating a window it does not own. These are denied requests, not
// hardware faults, but component code has no sensible way to continue, so
// they also unwind as panics recovered at the system boundary.
type APIError struct {
	Cubicle ID
	Op      string
	Reason  string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("monitor API error: cubicle %d %s: %s", e.Cubicle, e.Op, e.Reason)
}

// GuardArgs validates the argument word count of a component entry point
// at the crossing boundary. The trampoline ABI delivers a caller-chosen
// slice of argument words; an export indexing past its end would be a raw
// Go index panic — a simulator crash, not a component fault. Guarding
// turns a short argument vector into a typed APIError raised in the
// executing cubicle, which the supervisor contains at the crossing like
// any other isolation fault.
func GuardArgs(e *Env, op string, a []uint64, n int) {
	if len(a) < n {
		panic(&APIError{Cubicle: e.T.cur, Op: op,
			Reason: fmt.Sprintf("entry point needs %d argument words, got %d", n, len(a))})
	}
}

// AsFault reports whether a recovered panic value is one of the isolation
// fault types and returns it as an error. Foreign panic values (runtime
// errors, application panics) are not faults and yield ok=false.
func AsFault(r any) (err error, ok bool) {
	switch f := r.(type) {
	case *ProtectionFault:
		return f, true
	case *CFIFault:
		return f, true
	case *APIError:
		return f, true
	case *BudgetFault:
		return f, true
	case *QuotaFault:
		return f, true
	case *DeadlineFault:
		return f, true
	case *ContainedFault:
		return f, true
	}
	return nil, false
}

// Catch runs fn and returns the isolation fault it raised, or nil if it
// completed. Foreign panics propagate with their original value: the
// re-panic happens directly inside the deferred recovery, so the runtime
// prints the original panic chained with "[recovered]" and the faulting
// stack is preserved.
func Catch(fn func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		fault, ok := AsFault(r)
		if !ok {
			panic(r)
		}
		err = fault
	}()
	fn()
	return nil
}
