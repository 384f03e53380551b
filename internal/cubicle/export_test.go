package cubicle

import "cubicleos/internal/vm"

// Oracles and helpers the tests use; no run calls them.

// Signature returns the builder signature for comp.sym.
func (si *SystemImage) Signature(comp, sym string) ([32]byte, bool) {
	s, ok := si.sigs[symbol{comp, sym}]
	return s, ok
}

// CubicleByName returns the named cubicle, or nil.
func (m *Monitor) CubicleByName(name string) *Cubicle { return m.byName[name] }

// Depth returns the current call depth (frames pushed).
func (t *Thread) Depth() int { return len(t.frames) }

// Alloca allocates n bytes on the current cubicle's stack, released when
// the current cross-cubicle call returns.
func (e *Env) Alloca(n uint64) vm.Addr { return e.T.alloca(n) }

// AllocaPage allocates a page-aligned stack buffer of n bytes, the
// alignment §5.3 requires of windowed stack data (Figure 4's BUF).
func (e *Env) AllocaPage(n uint64) vm.Addr {
	raw := e.T.alloca(uint64(vm.PagesFor(n))*vm.PageSize + vm.PageSize - 16)
	return vm.Addr((uint64(raw) + vm.PageSize - 1) &^ (vm.PageSize - 1))
}

// WindowOf returns window wid of cubicle c, nil for a destroyed one.
func (m *Monitor) WindowOf(c ID, wid WID) *Window { return m.cubicle(c).windows[wid] }

// FreshWindow is the descriptor newWindow gives when no destroyed one
// waits on the free list.
func FreshWindow(wid WID, owner ID) *Window { return new(Monitor).newWindow(wid, owner) }
