package cubicle

import (
	"strings"
	"testing"

	"cubicleos/internal/cycles"
	"cubicleos/internal/mpk"
	"cubicleos/internal/vm"
)

func TestBootAssignsDistinctKeys(t *testing.T) {
	ts := bootPair(t, ModeFull)
	foo, bar, libc := ts.cubs["FOO"], ts.cubs["BAR"], ts.cubs["LIBC"]
	if foo.ID == bar.ID {
		t.Fatal("FOO and BAR share a cubicle")
	}
	if foo.Key == bar.Key {
		t.Error("isolated cubicles share an MPK key")
	}
	if foo.Key == monitorKey || bar.Key == monitorKey {
		t.Error("isolated cubicle uses the monitor key")
	}
	if libc.Key != sharedKey {
		t.Errorf("shared cubicle key = %d, want %d", libc.Key, sharedKey)
	}
	if libc.Kind != KindShared || foo.Kind != KindIsolated {
		t.Error("cubicle kinds wrong")
	}
}

func TestComponentBookkeeping(t *testing.T) {
	ts := bootPair(t, ModeFull)
	bar := ts.cubs["BAR"]
	if got := bar.Components(); len(got) != 1 || got[0] != "BAR" {
		t.Errorf("Components() = %v", got)
	}
	exp := bar.Exports()
	if len(exp) != 3 {
		t.Errorf("BAR exports %v", exp)
	}
	if ts.m.CubicleByName("BAR") != bar {
		t.Error("CubicleByName mismatch")
	}
	if ts.m.CubicleByName("NOPE") != nil {
		t.Error("CubicleByName returned ghost")
	}
}

// TestFigure1DirectCallFaults reproduces the motivating example: BAR
// dereferencing a pointer into FOO's memory without a window is a
// protection fault once components are isolated.
func TestFigure1DirectCallFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 10)
	ts.enter(t, "FOO", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		err := mustFault(t, func() { h.Call(e, uint64(buf), 5) })
		pf, ok := err.(*ProtectionFault)
		if !ok {
			t.Fatalf("got %T (%v), want *ProtectionFault", err, err)
		}
		if pf.Owner != ts.cubs["FOO"].ID {
			t.Errorf("fault owner = %d, want FOO", pf.Owner)
		}
		if pf.Access != mpk.AccessWrite {
			t.Errorf("fault access = %v, want write", pf.Access)
		}
	})
	if ts.m.Stats.DeniedFaults == 0 {
		t.Error("denied fault not counted")
	}
}

// TestFigure1WithWindow is the paper's Figure 1c: opening a window before
// the call makes the very same pointer-passing call work, zero-copy.
func TestFigure1WithWindow(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 10)
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 10)
		e.WindowOpen(wid, barID)
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		rets := h.Call(e, uint64(buf), 5)
		if len(rets) != 1 || rets[0] != 1 {
			t.Errorf("bar returned %v", rets)
		}
		e.WindowClose(wid, barID)
		// FOO reads its own array: implicit window 0 maps it back.
		if got := e.LoadByte(buf.Add(5)); got != 0xAA {
			t.Errorf("array[5] = %#x, want 0xAA", got)
		}
	})
	if ts.m.Stats.Faults < 2 {
		t.Errorf("expected at least 2 trap-and-map faults, got %d", ts.m.Stats.Faults)
	}
	if ts.m.Stats.Retags < 2 {
		t.Errorf("expected at least 2 retags, got %d", ts.m.Stats.Retags)
	}
}

// TestTrapAndMapRetagsOnlyOnce: after the first fault maps the page, later
// accesses by the same cubicle are fault-free.
func TestTrapAndMapRetagsOnlyOnce(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 64)
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 64)
		e.WindowOpen(wid, barID)
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		h.Call(e, uint64(buf), 0)
		faults := ts.m.Stats.Faults
		h.Call(e, uint64(buf), 1)
		h.Call(e, uint64(buf), 2)
		if ts.m.Stats.Faults != faults {
			t.Errorf("repeat accesses re-faulted: %d -> %d", faults, ts.m.Stats.Faults)
		}
	})
}

// TestCausalTagConsistency follows §5.6: closing a window does not revoke
// access until another cubicle touches the page.
func TestCausalTagConsistency(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 16)
	barH := Handle{}
	readH := Handle{}
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		barH = ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		readH = ts.m.MustResolve(e.Cubicle(), "BAR", "bar_read")
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 16)
		e.WindowOpen(wid, barID)
		barH.Call(e, uint64(buf), 3) // page now tagged for BAR
		e.WindowClose(wid, barID)
		// Window closed, but the page still carries BAR's tag: BAR can
		// still read it (causally consistent — BAR could have read it
		// just before closing).
		if got := readH.Call(e, uint64(buf), 3); got[0] != 0xAA {
			t.Errorf("post-close read = %#x", got[0])
		}
		// Now FOO touches its page: implicit window 0 retags it to FOO...
		if got := e.LoadByte(buf.Add(3)); got != 0xAA {
			t.Errorf("owner read = %#x", got)
		}
		// ...and from this point BAR's access must fault for real.
		err := mustFault(t, func() { readH.Call(e, uint64(buf), 3) })
		if _, ok := err.(*ProtectionFault); !ok {
			t.Fatalf("got %T, want *ProtectionFault", err)
		}
	})
}

func TestWindowPageGranularity(t *testing.T) {
	ts := bootPair(t, ModeFull)
	// Two 16-byte buffers; careless co-location on one page means a
	// window to the first also exposes the second (§5.3 alignment note).
	var a, b vm.Addr
	ts.enter(t, "FOO", func(e *Env) {
		a = e.HeapAlloc(16)
		b = e.HeapAlloc(16)
	})
	if a.PageNum() != b.PageNum() {
		t.Skip("allocator did not co-locate the buffers")
	}
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		wid := e.WindowInit()
		e.WindowAdd(wid, a, 16)
		e.WindowOpen(wid, barID)
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		// BAR can write b through a's window: same page.
		h.Call(e, uint64(b), 0)
	})
}

func TestSharedCubicleRunsWithCallerPrivileges(t *testing.T) {
	ts := bootPair(t, ModeFull)
	src := ts.heapIn(t, "FOO", 32)
	dst := ts.heapIn(t, "BAR", 32)
	ts.enter(t, "FOO", func(e *Env) {
		e.Write(src, []byte("hello, cubicles and windows!"))
	})
	ts.enter(t, "BAR", func(e *Env) {
		// BAR calls LIBC memcpy; LIBC executes with BAR's privileges, so
		// reading FOO's src must fault without a window...
		memcpy := ts.m.MustResolve(e.Cubicle(), "LIBC", "memcpy")
		err := mustFault(t, func() { memcpy.Call(e, uint64(dst), uint64(src), 28) })
		if pf, ok := err.(*ProtectionFault); !ok || pf.Cubicle != ts.cubs["BAR"].ID {
			t.Fatalf("fault = %v; want protection fault attributed to BAR", err)
		}
	})
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		e.WindowAdd(wid, src, 32)
		e.WindowOpen(wid, e.CubicleOf("BAR"))
	})
	sharedBefore := ts.m.Stats.SharedCalls
	crossBefore := ts.m.Stats.CallsTotal
	ts.enter(t, "BAR", func(e *Env) {
		memcpy := ts.m.MustResolve(e.Cubicle(), "LIBC", "memcpy")
		memcpy.Call(e, uint64(dst), uint64(src), 28)
		got := e.ReadBytes(dst, 28)
		if string(got) != "hello, cubicles and windows!" {
			t.Errorf("memcpy result %q", got)
		}
	})
	if ts.m.Stats.SharedCalls != sharedBefore+1 {
		t.Error("shared call not counted as shared")
	}
	if ts.m.Stats.CallsTotal != crossBefore {
		t.Error("shared call counted as a cross-cubicle call (it must bypass the TCB)")
	}
}

func TestCallStatsEdges(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 8)
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 8)
		e.WindowOpen(wid, e.CubicleOf("BAR"))
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		for i := 0; i < 5; i++ {
			h.Call(e, uint64(buf), 0)
		}
	})
	edge := Edge{From: ts.cubs["FOO"].ID, To: ts.cubs["BAR"].ID}
	if ts.m.Stats.Calls[edge] != 5 {
		t.Errorf("edge count = %d, want 5", ts.m.Stats.Calls[edge])
	}
	edges := ts.m.Stats.SortedEdges()
	if len(edges) == 0 || edges[0].Count < 5 {
		t.Errorf("SortedEdges = %v", edges)
	}
}

func TestModeLadderCosts(t *testing.T) {
	// The same workload must get monotonically more expensive as
	// isolation mechanisms are enabled: Figure 6's ablation structure.
	var costs [4]uint64
	var faults [4]uint64
	var wrpkrus [4]uint64
	for i, mode := range []Mode{ModeUnikraft, ModeTrampoline, ModeNoACL, ModeFull} {
		ts := bootPair(t, mode)
		buf := ts.heapIn(t, "FOO", 8)
		start := ts.m.Clock.Cycles()
		ts.enter(t, "FOO", func(e *Env) {
			wid := e.WindowInit()
			e.WindowAdd(wid, buf, 8)
			e.WindowOpen(wid, e.CubicleOf("BAR"))
			h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
			for j := 0; j < 10; j++ {
				h.Call(e, uint64(buf), 0)
			}
			e.WindowCloseAll(wid)
		})
		costs[i] = ts.m.Clock.Cycles() - start
		faults[i] = ts.m.Stats.Faults
		wrpkrus[i] = ts.m.Stats.WRPKRUs
	}
	if costs[0] != 0 {
		t.Errorf("Unikraft mode charged %d cycles, want 0", costs[0])
	}
	if !(costs[1] > costs[0] && costs[2] > costs[1] && costs[3] > costs[2]) {
		t.Errorf("mode costs not increasing: %v", costs)
	}
	if faults[0] != 0 || faults[1] != 0 {
		t.Errorf("non-MPK modes took faults: %v", faults)
	}
	if faults[2] == 0 || faults[3] == 0 {
		t.Errorf("MPK modes took no faults: %v", faults)
	}
	if wrpkrus[1] != 0 || wrpkrus[2] == 0 {
		t.Errorf("wrpkru counts wrong: %v", wrpkrus)
	}
}

func TestNoACLModeGrantsWithoutWindows(t *testing.T) {
	ts := bootPair(t, ModeNoACL)
	buf := ts.heapIn(t, "FOO", 8)
	ts.enter(t, "FOO", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		// No window opened — ModeNoACL still grants (windows "open for
		// any access") but pays the trap and retag.
		h.Call(e, uint64(buf), 0)
	})
	if ts.m.Stats.Faults == 0 || ts.m.Stats.Retags == 0 {
		t.Error("no-ACL mode skipped the trap-and-map path")
	}
	if ts.m.Stats.WindowSearchSteps != 0 {
		t.Error("no-ACL mode searched window descriptors")
	}
}

func TestUnikraftModeIsFree(t *testing.T) {
	ts := bootPair(t, ModeUnikraft)
	buf := ts.heapIn(t, "FOO", 8)
	ts.enter(t, "FOO", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		before := ts.m.Clock.Cycles()
		h.Call(e, uint64(buf), 0)
		if ts.m.Clock.Cycles() != before {
			t.Error("direct call charged cycles in Unikraft mode")
		}
	})
	if ts.m.Stats.Faults != 0 || ts.m.Stats.WRPKRUs != 0 {
		t.Error("Unikraft mode exercised MPK")
	}
}

func TestStackArgCopyCost(t *testing.T) {
	for _, mode := range []Mode{ModeTrampoline, ModeFull} {
		b := NewBuilder()
		b.MustAdd(&Component{Name: "A", Kind: KindIsolated, Exports: []ExportDecl{
			{Name: "a_main", Fn: func(e *Env, args []uint64) []uint64 { return nil }},
		}})
		b.MustAdd(&Component{Name: "B", Kind: KindIsolated, Exports: []ExportDecl{
			{Name: "light", RegArgs: 2, Fn: func(e *Env, args []uint64) []uint64 { return nil }},
			{Name: "heavy", RegArgs: 6, StackBytes: 256, Fn: func(e *Env, args []uint64) []uint64 { return nil }},
		}})
		si, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMonitor(mode, testCosts())
		if _, err := NewLoader(m).LoadSystem(si, nil); err != nil {
			t.Fatal(err)
		}
		env := m.NewEnv(m.NewThread())
		a := m.CubicleByName("A")
		env.T.pushFrame(a.ID, true)
		light := m.MustResolve(a.ID, "B", "light")
		heavy := m.MustResolve(a.ID, "B", "heavy")
		c0 := m.Clock.Cycles()
		light.Call(env, 1, 2)
		cLight := m.Clock.Cycles() - c0
		c0 = m.Clock.Cycles()
		heavy.Call(env, 1, 2, 3, 4, 5, 6)
		cHeavy := m.Clock.Cycles() - c0
		if cHeavy <= cLight {
			t.Errorf("mode %v: stack-heavy call (%d cycles) not more expensive than register call (%d)", mode, cHeavy, cLight)
		}
		if m.Stats.StackBytesCopied != 256 {
			t.Errorf("mode %v: stack bytes copied = %d, want 256", mode, m.Stats.StackBytesCopied)
		}
		env.T.popFrame()
	}
}

func TestAllocaLifetime(t *testing.T) {
	ts := bootPair(t, ModeFull)
	var first vm.Addr
	ts.enter(t, "FOO", func(e *Env) { first = e.Alloca(64) })
	var second vm.Addr
	ts.enter(t, "FOO", func(e *Env) { second = e.Alloca(64) })
	if first != second {
		t.Errorf("stack not released after return: %#x vs %#x", uint64(first), uint64(second))
	}
}

func TestAllocaPageAlignment(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		a := e.AllocaPage(10)
		if a.PageOff() != 0 {
			t.Errorf("AllocaPage returned unaligned %#x", uint64(a))
		}
		p := ts.m.AS.Page(a)
		if p.Type != vm.PageStack || p.Owner != int(ts.cubs["FOO"].ID) {
			t.Error("stack buffer page metadata wrong")
		}
		e.Write(a, make([]byte, 10))
	})
}

func TestStackOverflowFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		err := mustFault(t, func() {
			for i := 0; i < 100000; i++ {
				e.Alloca(4096)
			}
		})
		if !strings.Contains(err.Error(), "stack overflow") {
			t.Errorf("got %v", err)
		}
	})
}

func TestCubicleOfUnknownComponent(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		err := mustFault(t, func() { e.CubicleOf("GHOST") })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("got %T, want *APIError", err)
		}
	})
}

func TestCallerTracking(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		if e.Caller() != MonitorID {
			t.Errorf("outer caller = %d", e.Caller())
		}
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar_alloc")
		fooID := e.Cubicle()
		// Within BAR, the caller must be FOO. Checked via a nested probe.
		probe := ts.m.MustResolve(e.Cubicle(), "BAR", "bar_read")
		_ = probe
		inner := func() {
			rets := h.Call(e, 16)
			if rets[0] == 0 {
				t.Error("bar_alloc returned null")
			}
			p := ts.m.AS.Page(vm.Addr(rets[0]))
			if p.Owner != int(ts.cubs["BAR"].ID) {
				t.Error("BAR's heap allocation not owned by BAR")
			}
		}
		inner()
		if e.Cubicle() != fooID {
			t.Error("cubicle not restored after call")
		}
	})
}

// testCosts returns the default cost table (indirection point for
// cost-sensitive tests).
func testCosts() cycles.Costs { return cycles.DefaultCosts() }
