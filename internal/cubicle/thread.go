package cubicle

import (
	"fmt"

	"cubicleos/internal/mpk"
	"cubicleos/internal/vm"
)

// StackPages is the size of one per-cubicle stack in pages.
const StackPages = 16

// stack is a thread's stack inside one cubicle: trampolines switch
// between per-cubicle stacks on every cross-cubicle call (§5.5).
type stack struct {
	base vm.Addr // lowest address of the region
	size uint64
	sp   vm.Addr // current stack pointer (grows down)
}

// frame records state saved by a call so that the return path can restore
// it. entrySP is the stack pointer of the stack the callee executes on at
// call entry: restoring it at return releases everything the callee
// alloca'd, giving stack variables function-call lifetime.
type frame struct {
	caller    ID
	exec      ID // cubicle whose stack/privileges the callee runs with
	entrySP   vm.Addr
	savedPKRU mpk.PKRU
	crossing  bool // true if the call crossed cubicles via a trampoline
	// jmark is the length of the thread's containment journal at call
	// entry: entries past it were made by this call and are rolled back if
	// it faults under supervision.
	jmark int
	// entryCycles is the virtual clock at call entry, for the watchdog.
	entryCycles uint64
	// wmark is the length of the thread's argument word stack at call
	// entry: the call's own words sit above it and popFrame truncates back
	// to it, so an unwinding fault releases them exactly as it releases sp.
	wmark int
}

// Thread is one execution context. Each thread carries its own PKRU value
// and per-cubicle stacks, as MPK permissions are per-thread (the PKRU is a
// per-thread register, §8). Threads are cooperative and never run
// concurrently, following Unikraft's model: the one goroutine that drives
// the monitor steps them, and all of them charge the monitor's clock.
type Thread struct {
	m    *Monitor
	id   int // dense thread index, stamped into trace events
	cur  ID  // cubicle whose privileges the thread currently runs with
	pkru mpk.PKRU
	// stacks is indexed by cubicle ID (addCubicle bounds IDs by
	// MaxCubicles); nil until the thread first runs in that cubicle, and
	// again after the cubicle restarts.
	stacks [MaxCubicles]*stack
	frames []frame
	// journal records window-state changes for containment rollback; it is
	// only appended to while a supervisor is attached and is truncated when
	// the thread unwinds to depth zero (everything below is committed).
	journal []undoEntry
	// deadline is the armed request deadline in virtual cycles (0 = none);
	// deadlineFrame is the frame depth at arming time — only crossings
	// below it fault, so the arming cubicle always regains control.
	deadline      uint64
	deadlineFrame int
	// words is the argument word stack: every call stages its argument
	// words above the frame's wmark (stageArgs) and the callee reads them in
	// place, the way §5.5's trampoline copies in-stack arguments onto the
	// callee stack. ret is the result scratch Env.Ret fills; Handle.Call
	// poisons it on entry.
	words []uint64
	ret   [retWords]uint64
}

// retWords is the capacity of the per-thread result scratch; no entry point
// of the component set returns more than two words.
const retWords = 4

// retPoison fills the result scratch at every call entry, so a result
// slice read after a later call yields this pattern, never a plausible
// neighbour's value.
const retPoison = 0xDEADDEADDEADDEAD

// stageArgs copies a call's argument words onto the word stack and returns
// the callee's view of them. The view's capacity is clamped to its length:
// a callee that appends to its arguments gets a private copy instead of
// scribbling over words a deeper call will stage.
func (t *Thread) stageArgs(args []uint64) []uint64 {
	base := len(t.words)
	t.words = append(t.words, args...)
	return t.words[base:len(t.words):len(t.words)]
}

// NewThread creates a thread that starts executing in the monitor cubicle
// (boot context).
func (m *Monitor) NewThread() *Thread {
	t := &Thread{
		m:    m,
		id:   len(m.threads),
		cur:  MonitorID,
		pkru: mpk.AllAllowed,
	}
	t.pkru = m.pkruFor(MonitorID)
	m.threads = append(m.threads, t)
	return t
}

// TID returns the thread's dense index (the "tid" of its trace track).
func (t *Thread) TID() int { return t.id }

// Current returns the cubicle whose privileges the thread is running with.
func (t *Thread) Current() ID { return t.cur }

// Caller returns the cubicle that performed the innermost cross-cubicle
// call, or MonitorID at the outermost level. Shared-cubicle and
// same-cubicle calls are transparent: they do not change the caller.
func (t *Thread) Caller() ID {
	for i := len(t.frames) - 1; i >= 0; i-- {
		if t.frames[i].crossing {
			return t.frames[i].caller
		}
	}
	return MonitorID
}

// stackFor returns the thread's stack in cubicle id, allocating it on
// first use (the loader "allocates the necessary per-cubicle stacks for
// the current thread", §5.4).
func (t *Thread) stackFor(id ID) *stack {
	if s := t.stacks[id]; s != nil {
		return s
	}
	base := t.m.mapOwnedFor(t, id, StackPages, vm.PageStack, vm.PermRead|vm.PermWrite)
	s := &stack{base: base, size: StackPages * vm.PageSize}
	s.sp = base.Add(s.size)
	t.stacks[id] = s
	return s
}

// alloca carves n bytes (16-byte aligned) from the current cubicle's
// stack and returns the address. Frames are popped wholesale when the
// enclosing call returns.
func (t *Thread) alloca(n uint64) vm.Addr {
	s := t.stackFor(t.cur)
	n = (n + 15) &^ 15
	if uint64(s.sp-s.base) < n {
		panic(&APIError{Cubicle: t.cur, Op: "alloca",
			Reason: fmt.Sprintf("stack overflow allocating %d bytes", n)})
	}
	s.sp -= vm.Addr(n)
	return s.sp
}

// pushFrame records call state and, for cross-cubicle calls, switches the
// thread into the callee cubicle (per-cubicle stack included). Calls into
// shared cubicles and within a cubicle keep the caller's cubicle, stack
// and privileges (crossing=false), matching §3 ❹.
func (t *Thread) pushFrame(callee ID, crossing bool) {
	caller := t.cur
	if crossing {
		t.cur = callee
		// The profiler attributes elapsed cycles to the executing
		// cubicle; a crossing frame is exactly a cubicle switch.
		if trc := t.m.trc; trc != nil {
			trc.SwitchCubicle(int(callee))
		}
	}
	s := t.stackFor(t.cur)
	t.frames = append(t.frames, frame{
		caller:      caller,
		exec:        t.cur,
		entrySP:     s.sp,
		savedPKRU:   t.pkru,
		crossing:    crossing,
		jmark:       len(t.journal),
		entryCycles: t.m.Clock.Cycles(),
		wmark:       len(t.words),
	})
}

// popFrame restores the state saved by the matching pushFrame: the
// callee's stack pointer (releasing its stack variables), the caller's
// cubicle for crossing calls, and the saved PKRU value.
func (t *Thread) popFrame() {
	if len(t.frames) == 0 {
		panic("cubicle: frame underflow")
	}
	f := t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	if s := t.stacks[f.exec]; s != nil {
		s.sp = f.entrySP
	}
	t.words = t.words[:f.wmark]
	if f.crossing {
		t.cur = f.caller
		if trc := t.m.trc; trc != nil {
			trc.SwitchCubicle(int(f.caller))
		}
	}
	t.pkru = f.savedPKRU
	if len(t.frames) == 0 && len(t.journal) > 0 {
		// Unwound to the outermost level: everything journalled below is
		// committed, nothing can roll it back anymore.
		t.journal = t.journal[:0]
	}
}
