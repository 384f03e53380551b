package cubicle_test

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/cycles"
	"cubicleos/internal/vm"
)

// TestRecycledWindowStartsClean: the descriptor of a window destroyed
// after a full lifecycle — two ranges added, opened for another cubicle,
// closed — and then poisoned is the one the cubicle's next WindowInit
// gets, and it reads as a new one.
func TestRecycledWindowStartsClean(t *testing.T) {
	noop := func(e *cubicle.Env, _ []uint64) []uint64 { return nil }
	b := cubicle.NewBuilder()
	for _, name := range []string{"A", "B"} {
		b.MustAdd(&cubicle.Component{Name: name, Kind: cubicle.KindIsolated,
			Exports: []cubicle.ExportDecl{{Name: name + "_noop", Fn: noop}}})
	}
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := cubicle.NewMonitor(cubicle.ModeFull, cycles.DefaultCosts())
	cubs, err := cubicle.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, other := cubs["A"].ID, cubs["B"].ID
	env := m.NewEnv(m.NewThread())
	var old, got *cubicle.Window
	var wid cubicle.WID
	if err := m.RunAs(env, a, func(e *cubicle.Env) {
		buf := e.HeapAlloc(2 * vm.PageSize)
		w := e.WindowInit()
		e.WindowAdd(w, buf, vm.PageSize)
		e.WindowAdd(w, buf.Add(vm.PageSize), vm.PageSize)
		e.WindowOpen(w, other)
		e.WindowClose(w, other)
		old = m.WindowOf(a, w)
		e.WindowDestroy(w)
		cubicletest.Poison(old)
		wid = e.WindowInit()
		got = m.WindowOf(a, wid)
	}); err != nil {
		t.Fatal(err)
	}
	if got != old {
		t.Fatal("WindowInit did not reuse the destroyed descriptor")
	}
	if err := cubicletest.Fresh(got, cubicle.FreshWindow(wid, a)); err != nil {
		t.Error(err)
	}
}
