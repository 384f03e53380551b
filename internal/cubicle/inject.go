package cubicle

import "cubicleos/internal/trace"

// InjectKind is a deterministic fault-injection decision returned by an
// Injector at one of the monitor's injection sites.
type InjectKind uint8

const (
	// InjectNone fires nothing.
	InjectNone InjectKind = iota
	// InjectProt raises a ProtectionFault in the target cubicle.
	InjectProt
	// InjectCFI raises a CFIFault in the target cubicle.
	InjectCFI
	// InjectBudget raises a BudgetFault in the target cubicle.
	InjectBudget
	// InjectLeak models a callee that creates a window and crashes before
	// destroying it: the containment journal must clean it up.
	InjectLeak
)

// Injector decides, per site, whether to inject a fault. Implementations
// (see internal/faultinject) are seeded PRNGs so the decision stream is
// deterministic for a given workload. The monitor consults the injector
// at three sites: cross-cubicle call entry, window-management API calls,
// and trap-and-map retags. Methods take component/cubicle names so the
// implementation needs no dependency on this package's ID space.
type Injector interface {
	// AtCrossing is consulted after the crossing switched into the callee;
	// the injected fault is attributed to — and contained against — the
	// callee cubicle.
	AtCrossing(callee, symbol string) InjectKind
	// AtWindowOp is consulted on window-management calls by cubicle owner.
	AtWindowOp(owner, op string) InjectKind
	// AtRetag is consulted when the trap-and-map handler is about to retag
	// a page for the named cubicle.
	AtRetag(cubicle string) InjectKind
}

// SetInjector attaches (or, with nil, detaches) a deterministic fault
// injector. Injection only makes sense under containment, but the monitor
// does not enforce that: an unsupervised injected fault simply unwinds to
// the outermost Catch like any real fault.
func (m *Monitor) SetInjector(inj Injector) {
	m.inj = inj
}

// injectAtCrossing fires an injected fault inside a freshly entered
// crossing. It runs with the callee's frame pushed, so containment
// attributes the fault to the callee exactly as a real one.
func (m *Monitor) injectAtCrossing(t *Thread, tr *Trampoline) {
	kind := m.inj.AtCrossing(tr.cub.Name, tr.sym)
	if kind == InjectNone {
		return
	}
	m.note(trace.EvInjected, nil, tr.callee, 0, 0, 0, "crossing")
	switch kind {
	case InjectCFI:
		panic(&CFIFault{Cubicle: tr.callee, Target: tr.Symbol(),
			Reason: "injected CFI fault"})
	case InjectBudget:
		b := uint64(0)
		if m.sup != nil {
			b = m.sup.policy.CrossingBudget
		}
		panic(&BudgetFault{Cubicle: tr.callee, Used: b + 1, Budget: b,
			Reason: "injected budget overrun"})
	case InjectLeak:
		// The callee "creates" a window and crashes before destroying it;
		// windowInit journals the creation, and the regression tests assert
		// that rollback leaves no extra window behind.
		wid := m.windowInit(t, tr.callee)
		if m.sup != nil {
			t.journal = append(t.journal, undoEntry{kind: undoDestroyWindow,
				owner: tr.callee, wid: wid})
		}
		panic(&ProtectionFault{Cubicle: tr.callee, Owner: tr.callee,
			Reason: "injected fault after window leak"})
	default: // InjectProt
		panic(&ProtectionFault{Cubicle: tr.callee, Owner: tr.callee,
			Reason: "injected protection fault"})
	}
}
