package cubicle

import (
	"fmt"

	"cubicleos/internal/isa"
	"cubicleos/internal/mpk"
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// Fn is the uniform binary interface of component entry points: argument
// and result words are 64-bit values in which pointers are simulated
// virtual addresses. The first RegArgs words travel in registers; any
// additional StackBytes of argument data travel on the stack and are
// copied across per-cubicle stacks by the trampoline (§5.5).
//
// Both slices belong to the trampoline, not to the entry point. args is a
// view of the calling thread's argument word stack, valid for the duration
// of the call. The result is handed back with Env.Ret, which places it in a
// per-thread scratch: a result slice is valid until the thread's next
// Handle.Call, so callers take the words they need (r[0], r[1]) before
// calling again and never store the slice.
type Fn func(e *Env, args []uint64) []uint64

// Trampoline is a cross-cubicle call thunk generated and signed by the
// trusted builder (§5.2/§5.5). It switches memory access permissions
// between the caller's and callee's MPK keys with wrpkru, switches
// per-cubicle stacks, and copies in-stack arguments across them.
type Trampoline struct {
	id     uint32
	callee ID
	// cub is the callee's cubicle, bound by the loader as §5.4 binds the
	// symbol: m.cubicles is append-only and a restart rebuilds a cubicle in
	// place, so the pointer stays the one m.cubicle(callee) returns.
	cub        *Cubicle
	sym        string
	symbol     string // "component.symbol", built once by the loader
	fn         Fn
	regArgs    int
	stackBytes int
	sig        [32]byte // builder signature verified by the loader

	// thunkAddr is the trampoline code thunk's page in the monitor's
	// cubicle; guards maps caller cubicles to their guard pages (§5.5).
	thunkAddr vm.Addr
	guards    map[ID]vm.Addr
}

// Symbol returns the trampoline's "component.symbol" name.
func (tr *Trampoline) Symbol() string { return tr.symbol }

// Handle is a resolved cross-cubicle call target: the dynamic-symbol
// binding the loader installs so that calls "go through the appropriate
// trampolines" (§5.4). A handle is bound to the cubicle it was resolved
// for; using it from any other cubicle is a control-flow-integrity
// violation (it would mean executing another cubicle's guard page).
type Handle struct {
	m      *Monitor
	tr     *Trampoline
	caller *Cubicle
}

// guardInfo lets the monitor recognise control transfers into guard and
// thunk pages for CFI checks.
type guardInfo struct {
	tramp   *Trampoline
	caller  ID // cubicle the guard page belongs to
	isThunk bool
}

// Resolve binds caller to the exported symbol sym of component comp,
// installing the guard page for this caller if it does not exist yet.
// Resolution fails if the symbol is not a public entry point — this is
// the CFI property that "untrusted components only interact via their
// intended interfaces" (§3).
func (m *Monitor) Resolve(caller ID, comp, sym string) (Handle, error) {
	cub, ok := m.compOf[comp]
	if !ok {
		return Handle{}, fmt.Errorf("cubicle: unknown component %q", comp)
	}
	tr, ok := cub.exports[sym]
	if !ok {
		return Handle{}, fmt.Errorf("cubicle: %q is not a public entry point of component %q", sym, comp)
	}
	m.installGuard(tr, caller)
	return Handle{m: m, tr: tr, caller: m.cubicle(caller)}, nil
}

// MustResolve is Resolve for boot-time wiring, where failure is a
// deployment bug.
func (m *Monitor) MustResolve(caller ID, comp, sym string) Handle {
	h, err := m.Resolve(caller, comp, sym)
	if err != nil {
		panic(err)
	}
	return h
}

// installGuard materialises the guard page for (trampoline, caller) in the
// caller's cubicle: execute-only, containing wrpkru + jmp + nop slide
// (§5.5 hardware support).
func (m *Monitor) installGuard(tr *Trampoline, caller ID) {
	if tr.callee == caller {
		return // same-cubicle call needs no guard
	}
	if tr.cub.Kind == KindShared {
		return // shared cubicles are entered directly, no TCB involved
	}
	if _, ok := tr.guards[caller]; ok {
		return
	}
	addr := m.MapOwned(caller, 1, vm.PageCode, vm.PermExec)
	code := isa.BuildGuardPage(tr.id)
	p := m.AS.Page(addr)
	copy(p.Data[:], code)
	tr.guards[caller] = addr
	m.guardPages[addr.PageNum()] = guardInfo{tramp: tr, caller: caller}
}

// GuardAddr returns the guard page address installed for caller, or 0.
// With ExecuteAt it is the CFI attack hook: only tests use the pair, and the
// red-team battery (ROADMAP item 3) builds on it.
func (tr *Trampoline) GuardAddr(caller ID) vm.Addr { return tr.guards[caller] }

// Call invokes the handle's target with the given argument words,
// performing the full cross-cubicle call sequence of §5.5 under the
// system's isolation mode. It returns the callee's result words, which are
// valid until the thread's next Call (see Fn); args is copied and not
// retained.
//
// Call itself is the prelude every call pays — handle and CFI checks,
// checkpoint cadence, admission, call accounting — and holds no defer; the
// three bodies it ends in (callLocal, crossFast, crossFull) have one return
// and at most two defers each, which keeps every defer in this file
// open-coded (scripts/defercheck.sh fails on one that is not).
func (h Handle) Call(e *Env, args ...uint64) []uint64 {
	if h.tr == nil {
		panic(&CFIFault{Cubicle: e.T.cur, Target: "<nil>", Reason: "call through unresolved handle"})
	}
	m, t, tr := h.m, e.T, h.tr
	for i := range t.ret {
		t.ret[i] = retPoison
	}
	if m.ckptInterval != 0 && len(t.frames) == 0 {
		// Checkpoint cadence: outermost call entries are the monitor's
		// quiescent points.
		m.maybeCheckpoint()
	}

	// Same-cubicle call: a plain function call, no TCB involvement.
	if tr.callee == t.cur {
		return h.callLocal(e, args)
	}

	// Shared cubicle: executes with the privileges, stack and heap of the
	// calling cubicle; never involves the runtime TCB (§3 ❹).
	if tr.cub.Kind == KindShared {
		m.note(trace.EvSharedCall, t, t.cur, tr.callee, 0, 0, tr.Symbol())
		return h.callLocal(e, args)
	}

	// Cross-cubicle call. The handle must be used from the cubicle it was
	// resolved for: a handle leaking to another cubicle models a jump
	// into a guard page that lives in someone else's cubicle, which MPK
	// exec permissions forbid.
	if h.caller.ID != t.cur {
		panic(&CFIFault{Cubicle: t.cur, Target: tr.Symbol(),
			Reason: fmt.Sprintf("handle was resolved for cubicle %d", h.caller.ID)})
	}
	if m.sup != nil {
		// Health gate: quarantined/dead callees fail fast before any call
		// accounting; an expired quarantine restarts the callee in place.
		m.sup.admit(t, tr)
	}
	// The crossing happens here, before either body: the metrics sampler at
	// the top of crossFull counts it, and the trace opens its call span.
	var copied uint64
	if m.Mode.TrampolinesEnabled() {
		copied = uint64(tr.stackBytes)
	}
	m.note(trace.EvCallEnter, t, t.cur, tr.callee, copied, 0, tr.Symbol())

	if m.fastCross {
		return h.crossFast(e, args)
	}
	return h.crossFull(e, args)
}

// callLocal runs a call that stays in the caller's cubicle — a
// same-cubicle call or a call into a shared cubicle: a frame for stack
// variable lifetime, no permission or stack switch.
func (h Handle) callLocal(e *Env, args []uint64) []uint64 {
	t := e.T
	t.pushFrame(h.tr.callee, false)
	defer t.popFrame()
	return h.tr.fn(e, t.stageArgs(args))
}

// crossFast is the trusted-crossing fast path: no tracer, injector, metrics
// sampling or checkpoint cadence is attached (one precomputed flag), and
// admission already proved the callee healthy. What remains is exactly the
// architectural call sequence — the charges, the frame switch, the two
// wrpkru executions — with the slow-path setup (trace event assembly,
// sampling cadence checks, injection draws) skipped entirely. Charge order
// is identical to crossFull, so virtual time is unaffected.
func (h Handle) crossFast(e *Env, args []uint64) []uint64 {
	m, t, tr := h.m, e.T, h.tr
	if m.Mode.TrampolinesEnabled() {
		m.Clock.Charge(m.Costs.TrampolineBase)
		if tr.stackBytes > 0 {
			m.Clock.Charge(uint64(tr.stackBytes) * m.Costs.StackArgByte)
		}
	}
	t.pushFrame(tr.callee, true)
	defer t.popFrame()
	if m.sup != nil {
		defer m.sup.contain(t, tr)
	}
	if t.deadline != 0 {
		m.checkDeadline(t)
	}
	if tr.stackBytes > 0 {
		t.alloca(uint64(tr.stackBytes))
	}
	if m.Mode.MPKEnabled() {
		m.wrpkru(t, m.pkruOf(tr.cub))
	}
	rets := tr.fn(e, t.stageArgs(args))
	if m.Mode.TrampolinesEnabled() {
		m.Clock.Charge(m.Costs.TrampolineBase)
	}
	if m.Mode.MPKEnabled() {
		m.wrpkru(t, m.pkruOf(h.caller))
	}
	return rets
}

// crossFull is the crossing with every attachment consulted: metrics
// sampling, trace events, fault injection.
func (h Handle) crossFull(e *Env, args []uint64) []uint64 {
	m, t, tr := h.m, e.T, h.tr
	if m.met != nil {
		// Metrics sampling rides the crossing rate: the first crossing at
		// or past each interval threshold takes the snapshot.
		m.maybeSampleMetrics(m.Clock.Cycles())
	}
	if m.Mode.TrampolinesEnabled() {
		m.Clock.Charge(m.Costs.TrampolineBase)
		if tr.stackBytes > 0 {
			m.Clock.Charge(uint64(tr.stackBytes) * m.Costs.StackArgByte)
		}
	}
	t.pushFrame(tr.callee, true)
	defer t.popFrame()
	if m.sup != nil {
		// Registered after popFrame so it runs first (LIFO), while the
		// crossing frame is still live for rollback and attribution.
		defer m.sup.contain(t, tr)
	}
	if t.deadline != 0 {
		// Deadline gate: an expired request is abandoned at the crossing it
		// would next cross, inside the contain defer so the fault rolls back
		// and is delivered to the caller as a typed ContainedFault.
		m.checkDeadline(t)
	}
	if tr.stackBytes > 0 {
		// The trampoline reserves space for in-stack arguments on the
		// callee stack (the copy itself is charged above).
		t.alloca(uint64(tr.stackBytes))
	}
	if m.Mode.MPKEnabled() {
		m.wrpkru(t, m.pkruOf(tr.cub))
	}
	if m.inj != nil {
		m.injectAtCrossing(t, tr)
	}

	rets := tr.fn(e, t.stageArgs(args))

	// Return path: switch permissions and stacks back (§5.5 "function
	// returns across cubicles are handled in a similar way").
	if m.Mode.TrampolinesEnabled() {
		m.Clock.Charge(m.Costs.TrampolineBase)
	}
	if m.Mode.MPKEnabled() {
		m.wrpkru(t, m.pkruOf(h.caller))
	}
	if m.trc != nil {
		m.trc.CallExit(t.id, int(h.caller.ID), int(tr.callee), tr.Symbol())
	}
	return rets
}

// ExecuteAt models an attempted control transfer to an arbitrary address,
// used to demonstrate the CFI guarantees: execution must be permitted by
// the page table and MPK (including the paper's exec-follows-access
// modification), guard pages may only be entered at offset 0, and
// trampoline thunks in the monitor's cubicle are never directly
// executable by cubicles.
func (m *Monitor) ExecuteAt(t *Thread, addr vm.Addr) {
	p := m.AS.Page(addr)
	if p == nil {
		panic(&ProtectionFault{Addr: addr, Access: mpk.AccessExec, Cubicle: t.cur,
			Owner: vm.NoOwner, Reason: "unmapped page"})
	}
	if gi, ok := m.guardPages[addr.PageNum()]; ok {
		if gi.isThunk {
			panic(&CFIFault{Cubicle: t.cur, Target: gi.tramp.Symbol(),
				Reason: "direct execution of a trampoline code thunk"})
		}
		if !isa.GuardEntryOK(addr.PageOff()) {
			panic(&CFIFault{Cubicle: t.cur, Target: gi.tramp.Symbol(),
				Reason: fmt.Sprintf("guard page entered at offset %#x", addr.PageOff())})
		}
		if gi.caller != t.cur {
			panic(&CFIFault{Cubicle: t.cur, Target: gi.tramp.Symbol(),
				Reason: fmt.Sprintf("guard page belongs to cubicle %d", gi.caller)})
		}
	}
	m.resolveSpan(t, mpk.AccessExec, addr, 1)
}
