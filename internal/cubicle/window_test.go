package cubicle

import (
	"testing"
	"testing/quick"

	"cubicleos/internal/vm"
)

func TestWindowOnlyOwnerManages(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 8)
	var wid WID
	ts.enter(t, "FOO", func(e *Env) {
		wid = e.WindowInit()
		e.WindowAdd(wid, buf, 8)
	})
	// BAR trying to manage FOO's window must be denied: "windows are
	// assigned to the calling cubicle, and can only be managed by it".
	ts.enter(t, "BAR", func(e *Env) {
		for name, op := range map[string]func(){
			"open":      func() { e.WindowOpen(wid, e.CubicleOf("BAR")) },
			"close":     func() { e.WindowClose(wid, e.CubicleOf("BAR")) },
			"close_all": func() { e.WindowCloseAll(wid) },
			"destroy":   func() { e.WindowDestroy(wid) },
			"add":       func() { e.WindowAdd(wid, buf, 8) },
			"remove":    func() { e.WindowRemove(wid, buf) },
		} {
			err := mustFault(t, op)
			if _, ok := err.(*APIError); !ok {
				t.Errorf("%s by non-owner: got %T, want *APIError", name, err)
			}
		}
	})
}

func TestWindowAddRejectsForeignMemory(t *testing.T) {
	ts := bootPair(t, ModeFull)
	barBuf := ts.heapIn(t, "BAR", 8)
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		// The nested-call rule (§5.6): a cubicle cannot open a window on
		// data owned by another cubicle, even if shared with it.
		err := mustFault(t, func() { e.WindowAdd(wid, barBuf, 8) })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("got %T, want *APIError", err)
		}
	})
}

func TestWindowAddRejectsCodeAndUnmapped(t *testing.T) {
	ts := bootPair(t, ModeFull)
	// Find one of FOO's code pages.
	var codeAddr vm.Addr
	ts.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if p.Owner == int(ts.cubs["FOO"].ID) && p.Type == vm.PageCode && codeAddr == 0 {
			codeAddr = vm.PageAddr(pn)
		}
	})
	if codeAddr == 0 {
		t.Fatal("FOO has no code page")
	}
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		if err := mustFault(t, func() { e.WindowAdd(wid, codeAddr, 8) }); err == nil {
			t.Error("windowing a code page allowed")
		}
		if err := mustFault(t, func() { e.WindowAdd(wid, vm.Addr(0xFFFF0000), 8) }); err == nil {
			t.Error("windowing unmapped memory allowed")
		}
		if err := mustFault(t, func() { e.WindowAdd(wid, codeAddr, 0) }); err == nil {
			t.Error("empty range allowed")
		}
	})
}

func TestWindowRemoveRestoresIsolation(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 8)
	buf2 := ts.heapIn(t, "FOO", vm.PageSize) // page-aligned, separate page
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 8)
		e.WindowAdd(wid, buf2, 8)
		e.WindowOpen(wid, barID)
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		h.Call(e, uint64(buf2), 0)
		e.WindowRemove(wid, buf2)
		// Touch by owner to retag, then BAR must fault on buf2 but still
		// reach buf.
		_ = e.LoadByte(buf2)
		mustFault(t, func() { h.Call(e, uint64(buf2), 1) })
		h.Call(e, uint64(buf), 0)
		// Removing a range that was never added fails.
		err := mustFault(t, func() { e.WindowRemove(wid, buf2) })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("double remove: got %T", err)
		}
	})
}

func TestWindowCloseAllAndDestroy(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 8)
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 8)
		e.WindowOpen(wid, barID)
		e.WindowCloseAll(wid)
		_ = e.LoadByte(buf) // owner touch retags to FOO
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		mustFault(t, func() { h.Call(e, uint64(buf), 0) })
		if n := ts.m.WindowCount(e.Cubicle()); n != 1 {
			t.Errorf("window count = %d, want 1", n)
		}
		e.WindowDestroy(wid)
		if n := ts.m.WindowCount(e.Cubicle()); n != 0 {
			t.Errorf("window count after destroy = %d, want 0", n)
		}
		// Operations on a destroyed window fail.
		err := mustFault(t, func() { e.WindowOpen(wid, barID) })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("open destroyed: got %T", err)
		}
		// A new init reuses the freed slot.
		wid2 := e.WindowInit()
		if wid2 != wid {
			t.Errorf("destroyed slot not reused: %d vs %d", wid2, wid)
		}
	})
}

func TestWindowOpenUnknownCubicle(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 8)
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 8)
		err := mustFault(t, func() { e.WindowOpen(wid, ID(55)) })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("got %T", err)
		}
	})
}

func TestWindowOpenIsPerCubicle(t *testing.T) {
	// Window opened for BAR must not admit a third cubicle.
	b := NewBuilder()
	store := func(e *Env, args []uint64) []uint64 {
		e.StoreByte(vm.Addr(args[0]), 0x55)
		return nil
	}
	b.MustAdd(&Component{Name: "OWNER", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "o_main", Fn: func(e *Env, args []uint64) []uint64 { return nil }}}})
	b.MustAdd(&Component{Name: "GOOD", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "g_store", RegArgs: 1, Fn: store}}})
	b.MustAdd(&Component{Name: "EVIL", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "e_store", RegArgs: 1, Fn: store}}})
	si, _ := b.Build()
	m := NewMonitor(ModeFull, testCosts())
	if _, err := NewLoader(m).LoadSystem(si, nil); err != nil {
		t.Fatal(err)
	}
	env := m.NewEnv(m.NewThread())
	owner := m.CubicleByName("OWNER")
	env.T.pushFrame(owner.ID, true)
	m.wrpkru(env.T, m.pkruFor(owner.ID))
	buf := env.HeapAlloc(8)
	wid := env.WindowInit()
	env.WindowAdd(wid, buf, 8)
	env.WindowOpen(wid, env.CubicleOf("GOOD"))
	good := m.MustResolve(owner.ID, "GOOD", "g_store")
	evil := m.MustResolve(owner.ID, "EVIL", "e_store")
	good.Call(env, uint64(buf))
	_ = env.LoadByte(buf) // owner retags back
	err := Catch(func() { evil.Call(env, uint64(buf)) })
	if err == nil {
		t.Fatal("third cubicle accessed a window opened only for GOOD")
	}
	env.T.popFrame()
}

// TestWindowACLBitmaskProperty: open/close for random subsets of cubicles
// always yields exactly the allowed set.
func TestWindowACLBitmaskProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		w := &Window{ID: 0, Owner: 1}
		allowed := make(map[ID]bool)
		for _, op := range ops {
			cid := ID(op % MaxCubicles)
			if op&0x8000 != 0 {
				w.Open |= 1 << uint(cid)
				allowed[cid] = true
			} else {
				w.Open &^= 1 << uint(cid)
				delete(allowed, cid)
			}
		}
		for cid := ID(0); cid < MaxCubicles; cid++ {
			if w.IsOpenFor(cid) != allowed[cid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeContainsPageGranularity(t *testing.T) {
	r := vm.Extent{Addr: vm.Addr(vm.PageSize + 100), Size: 10}
	if !r.Contains(vm.Addr(vm.PageSize)) {
		t.Error("range does not cover the start of its own page")
	}
	if !r.Contains(vm.Addr(2*vm.PageSize - 1)) {
		t.Error("range does not cover the end of its own page")
	}
	if r.Contains(vm.Addr(2 * vm.PageSize)) {
		t.Error("range covers the next page")
	}
	if r.Contains(vm.Addr(vm.PageSize - 1)) {
		t.Error("range covers the previous page")
	}
}

func TestWindowSearchChargedPerEntry(t *testing.T) {
	ts := bootPair(t, ModeFull)
	// Create many windows so the linear search has to walk them.
	bufs := make([]vm.Addr, 12)
	for i := range bufs {
		bufs[i] = ts.heapIn(t, "FOO", vm.PageSize)
	}
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		for _, b := range bufs {
			wid := e.WindowInit()
			e.WindowAdd(wid, b, vm.PageSize)
			e.WindowOpen(wid, barID)
		}
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		h.Call(e, uint64(bufs[len(bufs)-1]), 0)
	})
	if ts.m.Stats.WindowSearchSteps < uint64(len(bufs)) {
		t.Errorf("search steps = %d, want >= %d (linear search)", ts.m.Stats.WindowSearchSteps, len(bufs))
	}
}

func TestStackWindowFigure4(t *testing.T) {
	// The paper's Figure 4: a page-aligned stack buffer windowed to
	// another cubicle.
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		barID := e.CubicleOf("BAR")
		buf := e.AllocaPage(10) // char BUF[10] + pad to page
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 10)
		e.WindowOpen(wid, barID)
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
		h.Call(e, uint64(buf), 7)
		e.WindowClose(wid, barID)
		if got := e.LoadByte(buf.Add(7)); got != 0xAA {
			t.Errorf("stack BUF[7] = %#x", got)
		}
	})
	if ts.m.Stats.Faults == 0 {
		t.Error("stack window access did not go through trap-and-map")
	}
}

func TestWindowStatsWindowOpsOnlyInFullMode(t *testing.T) {
	for _, mode := range []Mode{ModeUnikraft, ModeNoACL} {
		ts := bootPair(t, mode)
		buf := ts.heapIn(t, "FOO", 8)
		ts.enter(t, "FOO", func(e *Env) {
			wid := e.WindowInit()
			e.WindowAdd(wid, buf, 8)
			e.WindowOpen(wid, e.CubicleOf("BAR"))
		})
		if ts.m.Stats.WindowOps != 0 {
			t.Errorf("mode %v charged window ops", mode)
		}
	}
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 8)
	ts.enter(t, "FOO", func(e *Env) {
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 8)
	})
	if ts.m.Stats.WindowOps != 2 {
		t.Errorf("full mode window ops = %d, want 2", ts.m.Stats.WindowOps)
	}
}
