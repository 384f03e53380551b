package cubicle

import (
	"testing"

	"cubicleos/internal/cycles"
	"cubicleos/internal/vm"
)

// testSystem is the booted FOO/BAR/LIBC world of the paper's running
// examples (Figures 1, 2 and 4), used across the core tests.
type testSystem struct {
	m    *Monitor
	si   *SystemImage
	cubs map[string]*Cubicle
	env  *Env

	leakBuf vm.Addr // the buffer bootFaulty's svc_leak last shared
}

// bootPair boots a system with two isolated components FOO and BAR and a
// shared LIBC, in the given mode.
//
//	BAR exports "bar(ptr, idx)" which stores 0xAA at ptr[idx] (Figure 1).
//	LIBC exports "memcpy(dst, src, n)".
func bootPair(t testing.TB, mode Mode) *testSystem {
	t.Helper()
	ts := &testSystem{}
	b := NewBuilder()
	b.MustAdd(&Component{Name: "FOO", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "foo_noop", Fn: func(e *Env, args []uint64) []uint64 { return nil }},
	}})
	b.MustAdd(&Component{Name: "BAR", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "bar", RegArgs: 2, Fn: func(e *Env, args []uint64) []uint64 {
			e.StoreByte(vm.Addr(args[0]).Add(args[1]), 0xAA)
			return []uint64{1}
		}},
		{Name: "bar_read", RegArgs: 2, Fn: func(e *Env, args []uint64) []uint64 {
			return []uint64{uint64(e.LoadByte(vm.Addr(args[0]).Add(args[1])))}
		}},
		{Name: "bar_alloc", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			return []uint64{uint64(e.HeapAlloc(args[0]))}
		}},
	}})
	b.MustAdd(&Component{Name: "BAZ", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "baz_noop", Fn: func(e *Env, args []uint64) []uint64 { return nil }},
	}})
	b.MustAdd(&Component{Name: "LIBC", Kind: KindShared, Exports: []ExportDecl{
		{Name: "memcpy", RegArgs: 3, Fn: func(e *Env, args []uint64) []uint64 {
			e.Memcpy(vm.Addr(args[0]), vm.Addr(args[1]), args[2])
			return []uint64{args[0]}
		}},
	}})
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(mode, cycles.DefaultCosts())
	cubs, err := NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts.m, ts.si, ts.cubs = m, si, cubs
	ts.env = m.NewEnv(m.NewThread())
	return ts
}

// enter runs fn with the thread switched into the named cubicle via a
// synthetic entry trampoline, the way application main functions are
// entered at boot.
func (ts *testSystem) enter(t testing.TB, name string, fn func(e *Env)) {
	t.Helper()
	cub := ts.cubs[name]
	if cub == nil {
		cub = ts.m.CubicleByName(name)
	}
	if cub == nil {
		t.Fatalf("no cubicle %q", name)
	}
	ts.env.T.pushFrame(cub.ID, true)
	defer ts.env.T.popFrame()
	if ts.m.Mode.MPKEnabled() {
		ts.m.wrpkru(ts.env.T, ts.m.pkruFor(cub.ID))
	}
	fn(ts.env)
}

// mustFault asserts that fn raises an isolation fault and returns it.
func mustFault(t testing.TB, fn func()) error {
	t.Helper()
	err := Catch(fn)
	if err == nil {
		t.Fatal("expected an isolation fault, got none")
	}
	return err
}

// heapIn allocates n bytes on the named cubicle's heap and returns the
// address (running as that cubicle).
func (ts *testSystem) heapIn(t testing.TB, name string, n uint64) vm.Addr {
	t.Helper()
	var addr vm.Addr
	ts.enter(t, name, func(e *Env) { addr = e.HeapAlloc(n) })
	return addr
}
