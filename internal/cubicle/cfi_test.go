package cubicle

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cubicleos/internal/isa"
	"cubicleos/internal/vm"
)

func TestResolveUnexportedSymbolFails(t *testing.T) {
	ts := bootPair(t, ModeFull)
	if _, err := ts.m.Resolve(ts.cubs["FOO"].ID, "BAR", "bar_internal_secret"); err == nil {
		t.Fatal("resolved a symbol that is not a public entry point")
	}
	if _, err := ts.m.Resolve(ts.cubs["FOO"].ID, "NOSUCH", "x"); err == nil {
		t.Fatal("resolved against unknown component")
	}
}

func TestHandleBoundToResolvingCubicle(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 8)
	// Handle resolved for FOO, used from BAZ: models BAZ jumping through
	// a guard page that lives in FOO's cubicle.
	h := ts.m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")
	ts.enter(t, "BAZ", func(e *Env) {
		err := mustFault(t, func() { h.Call(e, uint64(buf), 0) })
		if _, ok := err.(*CFIFault); !ok {
			t.Fatalf("got %T (%v), want *CFIFault", err, err)
		}
	})
}

func TestUnresolvedHandleFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		var h Handle
		if h.tr != nil {
			t.Error("zero handle claims validity")
		}
		err := mustFault(t, func() { h.Call(e) })
		if _, ok := err.(*CFIFault); !ok {
			t.Fatalf("got %T, want *CFIFault", err)
		}
	})
}

func TestGuardPagePlacement(t *testing.T) {
	ts := bootPair(t, ModeFull)
	fooID := ts.cubs["FOO"].ID
	h := ts.m.MustResolve(fooID, "BAR", "bar")
	guard := h.tr.GuardAddr(fooID)
	if guard == 0 {
		t.Fatal("no guard page installed for FOO")
	}
	p := ts.m.AS.Page(guard)
	if p.Owner != int(fooID) {
		t.Errorf("guard page owned by %d, want FOO (%d)", p.Owner, fooID)
	}
	if perm, _ := p.Meta(); perm != vm.PermExec {
		t.Errorf("guard page perm %v, want execute-only", perm)
	}
	// Guard page content: wrpkru, jmp, then nop slide.
	if code := p.Bytes(); code[0] != isa.OpWRPKRU[0] || code[1] != isa.OpWRPKRU[1] || code[2] != isa.OpWRPKRU[2] {
		t.Error("guard page does not start with wrpkru")
	}
}

func TestGuardPageMidEntryFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	fooID := ts.cubs["FOO"].ID
	h := ts.m.MustResolve(fooID, "BAR", "bar")
	guard := h.tr.GuardAddr(fooID)
	ts.enter(t, "FOO", func(e *Env) {
		// Entry at offset 0 is the intended entry point.
		if err := Catch(func() { ts.m.ExecuteAt(e.T, guard) }); err != nil {
			t.Errorf("legitimate guard entry faulted: %v", err)
		}
		// Entry anywhere else must fault (nop-slide / mid-instruction).
		err := mustFault(t, func() { ts.m.ExecuteAt(e.T, guard.Add(1)) })
		if cf, ok := err.(*CFIFault); !ok || !strings.Contains(cf.Reason, "offset") {
			t.Fatalf("mid-guard entry: got %v", err)
		}
	})
}

func TestGuardPageOfOtherCubicleFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	fooID := ts.cubs["FOO"].ID
	h := ts.m.MustResolve(fooID, "BAR", "bar")
	guard := h.tr.GuardAddr(fooID)
	ts.enter(t, "BAR", func(e *Env) {
		err := mustFault(t, func() { ts.m.ExecuteAt(e.T, guard) })
		if _, ok := err.(*CFIFault); !ok {
			t.Fatalf("got %T, want *CFIFault", err)
		}
	})
}

func TestTrampolineThunkNotDirectlyExecutable(t *testing.T) {
	ts := bootPair(t, ModeFull)
	h := ts.m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")
	ts.enter(t, "FOO", func(e *Env) {
		err := mustFault(t, func() { ts.m.ExecuteAt(e.T, h.tr.thunkAddr) })
		cf, ok := err.(*CFIFault)
		if !ok || !strings.Contains(cf.Reason, "thunk") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestExecDataPageFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 16)
	ts.enter(t, "FOO", func(e *Env) {
		err := mustFault(t, func() { ts.m.ExecuteAt(e.T, buf) })
		pf, ok := err.(*ProtectionFault)
		if !ok {
			t.Fatalf("got %T, want *ProtectionFault", err)
		}
		if !strings.Contains(pf.Reason, "page-table") {
			t.Errorf("reason %q", pf.Reason)
		}
	})
}

// TestExecForeignCodeFaults checks the paper's hardware modification: a
// cubicle cannot execute another cubicle's code pages because its PKRU
// denies both read and write on that key, which now disables execution.
func TestExecForeignCodeFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	var barCode vm.Addr
	ts.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if p.Owner == int(ts.cubs["BAR"].ID) && p.Type == vm.PageCode && barCode == 0 {
			barCode = vm.PageAddr(pn)
		}
	})
	ts.enter(t, "FOO", func(e *Env) {
		err := mustFault(t, func() { ts.m.ExecuteAt(e.T, barCode) })
		if _, ok := err.(*ProtectionFault); !ok {
			t.Fatalf("got %T, want *ProtectionFault", err)
		}
	})
	// Own code pages execute fine (execute-only, key accessible).
	var fooCode vm.Addr
	ts.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if p.Owner == int(ts.cubs["FOO"].ID) && p.Type == vm.PageCode && fooCode == 0 {
			fooCode = vm.PageAddr(pn)
		}
	})
	ts.enter(t, "FOO", func(e *Env) {
		if err := Catch(func() { ts.m.ExecuteAt(e.T, fooCode) }); err != nil {
			t.Errorf("own code page not executable: %v", err)
		}
	})
}

func TestCodePagesAreExecuteOnly(t *testing.T) {
	ts := bootPair(t, ModeFull)
	var fooCode vm.Addr
	ts.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if p.Owner == int(ts.cubs["FOO"].ID) && p.Type == vm.PageCode && fooCode == 0 {
			fooCode = vm.PageAddr(pn)
		}
	})
	ts.enter(t, "FOO", func(e *Env) {
		// Even the owning cubicle cannot read or write its own code:
		// loader rule 1 of §5.4 (execute-only code pages).
		if err := Catch(func() { e.LoadByte(fooCode) }); err == nil {
			t.Error("code page readable")
		}
		if err := Catch(func() { e.StoreByte(fooCode, 0x90) }); err == nil {
			t.Error("code page writable")
		}
	})
}

func TestLoaderRejectsForbiddenInstructions(t *testing.T) {
	for _, seq := range [][]byte{isa.OpWRPKRU, isa.OpSYSCALL, isa.OpINT80} {
		b := NewBuilder()
		b.MustAdd(&Component{
			Name: "EVIL", Kind: KindIsolated,
			Exports: []ExportDecl{{Name: "f", Fn: func(e *Env, a []uint64) []uint64 { return nil }}},
			Image:   isa.Synthesize("EVIL", []string{"f"}, isa.SynthOptions{InjectForbidden: seq, InjectAt: -1}),
		})
		si, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(ModeFull, testCosts())
		_, err = NewLoader(m).LoadSystem(si, nil)
		le, ok := err.(*LoadError)
		if !ok {
			t.Fatalf("seq %x: got %v, want *LoadError", seq, err)
		}
		if !strings.Contains(le.Reason, "forbidden") {
			t.Errorf("seq %x: reason %q", seq, le.Reason)
		}
	}
}

// TestLoaderRejectsPageSpanningForbidden plants a wrpkru across a page
// boundary of the code section.
func TestLoaderRejectsPageSpanningForbidden(t *testing.T) {
	im := isa.Synthesize("EVIL", []string{"f"}, isa.SynthOptions{FuncSize: 3 * vm.PageSize, InjectForbidden: isa.OpWRPKRU, InjectAt: vm.PageSize - 1})
	b := NewBuilder()
	b.MustAdd(&Component{Name: "EVIL", Kind: KindIsolated,
		Exports: []ExportDecl{{Name: "f", Fn: func(e *Env, a []uint64) []uint64 { return nil }}},
		Image:   im})
	si, _ := b.Build()
	m := NewMonitor(ModeFull, testCosts())
	if _, err := NewLoader(m).LoadSystem(si, nil); err == nil {
		t.Fatal("loader accepted page-spanning wrpkru")
	}
}

// TestLoaderScansEveryCodeSection: a wrpkru in an image's second code
// section is refused like one in its first; no page of the image is
// mapped.
func TestLoaderScansEveryCodeSection(t *testing.T) {
	im := isa.Synthesize("EVIL", []string{"f"}, isa.SynthOptions{})
	evil := append(bytes.Repeat([]byte{isa.OpNOP}, 64), isa.OpWRPKRU...)
	im.Sections = append(im.Sections, isa.Section{Kind: isa.SecCode, Data: append(evil, isa.OpRET)})
	b := NewBuilder()
	b.MustAdd(&Component{Name: "EVIL", Kind: KindIsolated,
		Exports: []ExportDecl{{Name: "f", Fn: func(e *Env, a []uint64) []uint64 { return nil }}},
		Image:   im})
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(ModeFull, testCosts())
	before := m.AS.Total()
	_, err = NewLoader(m).LoadSystem(si, nil)
	if le, ok := err.(*LoadError); !ok || !strings.Contains(le.Reason, "forbidden instruction wrpkru") {
		t.Fatalf("got %v, want a LoadError naming the wrpkru", err)
	}
	if m.AS.Total() != before {
		t.Errorf("the refused image mapped pages: %+v, before %+v", m.AS.Total(), before)
	}
}

func TestLoaderRejectsTamperedSignature(t *testing.T) {
	ts := bootPair(t, ModeFull) // builds a valid image first
	_ = ts
	b := NewBuilder()
	b.MustAdd(&Component{Name: "X", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "x", Fn: func(e *Env, a []uint64) []uint64 { return nil }}}})
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	si.TamperSignature("X", "x")
	m := NewMonitor(ModeFull, testCosts())
	_, err = NewLoader(m).LoadSystem(si, nil)
	if err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("tampered descriptor loaded: %v", err)
	}
}

func TestLoaderRejectsUnbuiltComponent(t *testing.T) {
	m := NewMonitor(ModeFull, testCosts())
	b := NewBuilder()
	b.MustAdd(&Component{Name: "A", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "a", Fn: func(e *Env, a []uint64) []uint64 { return nil }}}})
	si, _ := b.Build()
	// A component never seen by the builder has no signature.
	rogue := &Component{Name: "R", Kind: KindIsolated,
		Exports: []ExportDecl{{Name: "r", Fn: func(e *Env, a []uint64) []uint64 { return nil }}},
		Image:   isa.Synthesize("R", []string{"r"}, isa.SynthOptions{})}
	if _, err := NewLoader(m).Load(si, rogue, ""); err == nil {
		t.Fatal("loader accepted component without builder signature")
	}
}

func TestLoaderGrouping(t *testing.T) {
	b := NewBuilder()
	noop := func(e *Env, a []uint64) []uint64 { return nil }
	b.MustAdd(&Component{Name: "VFSCORE", Kind: KindIsolated, Exports: []ExportDecl{{Name: "vfs_x", Fn: noop}}})
	b.MustAdd(&Component{Name: "RAMFS", Kind: KindIsolated, Exports: []ExportDecl{{Name: "ramfs_x", Fn: noop}}})
	b.MustAdd(&Component{Name: "APP", Kind: KindIsolated, Exports: []ExportDecl{{Name: "main", Fn: noop}}})
	si, _ := b.Build()
	m := NewMonitor(ModeFull, testCosts())
	cubs, err := NewLoader(m).LoadSystem(si, map[string]string{"VFSCORE": "CORE", "RAMFS": "CORE"})
	if err != nil {
		t.Fatal(err)
	}
	if cubs["VFSCORE"] != cubs["RAMFS"] {
		t.Fatal("grouped components in different cubicles")
	}
	if cubs["VFSCORE"] == cubs["APP"] {
		t.Fatal("ungrouped component fused")
	}
	core := cubs["VFSCORE"]
	if !slices.Contains(core.Components(), "VFSCORE") || !slices.Contains(core.Components(), "RAMFS") {
		t.Error("group cubicle component list wrong")
	}
	// Calls between fused components are same-cubicle: no cross edges.
	env := m.NewEnv(m.NewThread())
	env.T.pushFrame(core.ID, true)
	h := m.MustResolve(core.ID, "RAMFS", "ramfs_x")
	h.Call(env)
	env.T.popFrame()
	if m.Stats.CallsTotal != 0 {
		t.Error("same-cubicle call counted as crossing")
	}
}

func TestLoaderRejectsMixedKindGroup(t *testing.T) {
	b := NewBuilder()
	noop := func(e *Env, a []uint64) []uint64 { return nil }
	b.MustAdd(&Component{Name: "A", Kind: KindIsolated, Exports: []ExportDecl{{Name: "a", Fn: noop}}})
	b.MustAdd(&Component{Name: "B", Kind: KindShared, Exports: []ExportDecl{{Name: "b", Fn: noop}}})
	si, _ := b.Build()
	m := NewMonitor(ModeFull, testCosts())
	if _, err := NewLoader(m).LoadSystem(si, map[string]string{"A": "G", "B": "G"}); err == nil {
		t.Fatal("mixed-kind group loaded")
	}
}

func TestLoaderRejectsDuplicateLoadAndSymbols(t *testing.T) {
	b := NewBuilder()
	noop := func(e *Env, a []uint64) []uint64 { return nil }
	b.MustAdd(&Component{Name: "A", Kind: KindIsolated, Exports: []ExportDecl{{Name: "f", Fn: noop}}})
	b.MustAdd(&Component{Name: "B", Kind: KindIsolated, Exports: []ExportDecl{{Name: "f", Fn: noop}}})
	si, _ := b.Build()
	m := NewMonitor(ModeFull, testCosts())
	ld := NewLoader(m)
	if _, err := ld.Load(si, si.Components[0], ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Load(si, si.Components[0], ""); err == nil {
		t.Fatal("double load accepted")
	}
	// Same symbol in the same group cubicle collides.
	if _, err := ld.Load(si, si.Components[1], "A"); err == nil {
		t.Fatal("duplicate symbol in one cubicle accepted")
	}
}

func TestBuilderValidation(t *testing.T) {
	noop := func(e *Env, a []uint64) []uint64 { return nil }
	cases := []*Component{
		{Name: "", Kind: KindIsolated},
		{Name: "A", Exports: []ExportDecl{{Name: "f", Fn: nil}}},
		{Name: "B", Exports: []ExportDecl{{Name: "f", Fn: noop, RegArgs: 7}}},
		{Name: "C", Exports: []ExportDecl{{Name: "f", Fn: noop, StackBytes: -1}}},
		{Name: "D", Exports: []ExportDecl{{Name: "f", Fn: noop}, {Name: "f", Fn: noop}}},
	}
	for _, c := range cases {
		b := NewBuilder()
		if err := b.Add(c); err == nil {
			t.Errorf("builder accepted invalid component %+v", c)
		}
	}
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Error("empty build succeeded")
	}
	b2 := NewBuilder()
	b2.MustAdd(&Component{Name: "A", Kind: KindIsolated, Exports: []ExportDecl{{Name: "f", Fn: noop}}})
	if err := b2.Add(&Component{Name: "A", Kind: KindIsolated}); err == nil {
		t.Error("duplicate component accepted")
	}
}

func TestBuilderSignatures(t *testing.T) {
	b := NewBuilder()
	noop := func(e *Env, a []uint64) []uint64 { return nil }
	b.MustAdd(&Component{Name: "A", Kind: KindIsolated, Exports: []ExportDecl{{Name: "f", RegArgs: 2, StackBytes: 8, Fn: noop}}})
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := si.Signature("A", "f"); !ok {
		t.Fatal("no signature recorded")
	}
	if !si.verify("A", "f", 2, 8) {
		t.Error("valid descriptor does not verify")
	}
	// Changing any field of the descriptor invalidates the signature.
	if si.verify("A", "f", 3, 8) || si.verify("A", "f", 2, 9) || si.verify("A", "g", 2, 8) {
		t.Error("modified descriptor verifies")
	}
}

func TestEntryWithoutSwitchIsCFIFault(t *testing.T) {
	// Grab the raw registered Fn (as if a component smuggled a function
	// pointer) and invoke it while running as FOO: the callee-side
	// prologue must detect the bypassed trampoline.
	ts := bootPair(t, ModeFull)
	tr := ts.cubs["BAR"].exports["bar"]
	ts.enter(t, "FOO", func(e *Env) {
		err := mustFault(t, func() { tr.fn(e, []uint64{0, 0}) })
		cf, ok := err.(*CFIFault)
		if !ok || !strings.Contains(cf.Reason, "bypassed") {
			t.Fatalf("got %v", err)
		}
	})
}
