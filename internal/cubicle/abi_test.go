package cubicle

import (
	"testing"

	"cubicleos/internal/cycles"
	"cubicleos/internal/vm"
)

// This file pins the crossing ABI's ownership rules (DESIGN.md §15):
// argument words ride the thread's word stack, result words ride the
// thread's result scratch, and both belong to the trampoline.

// abiWorld is a four-cubicle chain APP → TOP → MID → LEAF whose entry
// points check, after their own callee returned, that their argument words
// are the ones they were called with and that the callee's result words
// are the ones it returned.
type abiWorld struct {
	*testSystem
	top, mid, leaf   Handle // the chain, each resolved for its caller
	grow, five, noop Handle // APP → MID, LEAF, LEAF
	// deep is APP → TOP → MID → BAD, where BAD faults: three crossings
	// unwind. BAD exists so that containing it leaves the chain healthy.
	deep, midFault, badFault Handle
	leaf3, monLeaf3          Handle // LEAF's leaf3 for APP and for the monitor (depth 0)
}

// bootABI boots the chain. wire, if non-nil, runs on the monitor before the
// components load (supervisor, checkpoints).
func bootABI(t testing.TB, wire func(m *Monitor)) *abiWorld {
	t.Helper()
	w := &abiWorld{testSystem: &testSystem{}}
	wantArgs := func(who string, got []uint64, want ...uint64) {
		if len(got) != len(want) {
			t.Errorf("%s: %d argument words %v, want %v", who, len(got), got, want)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: argument words %v after its callee returned, want %v", who, got, want)
				return
			}
		}
	}
	b := NewBuilder()
	b.MustAdd(&Component{Name: "APP", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "app_main", Fn: func(e *Env, a []uint64) []uint64 { return nil }},
	}})
	b.MustAdd(&Component{Name: "TOP", Kind: KindIsolated, Exports: []ExportDecl{
		// top(x, y, z) = mid(10x, 10y, 10z) passed up with one word changed.
		{Name: "top", RegArgs: 3, Fn: func(e *Env, a []uint64) []uint64 {
			x, y, z := a[0], a[1], a[2]
			r := w.mid.Call(e, 10*x, 10*y, 10*z)
			wantArgs("top", a, x, y, z)
			return e.Ret(r[0]+1, r[1]+2)
		}},
		{Name: "top_deep", RegArgs: 2, Fn: func(e *Env, a []uint64) []uint64 {
			w.midFault.Call(e, a[0], a[1], 7)
			t.Error("top_deep: the faulting chain returned")
			return nil
		}},
	}})
	b.MustAdd(&Component{Name: "MID", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "mid", RegArgs: 3, Fn: func(e *Env, a []uint64) []uint64 {
			p, q, s := a[0], a[1], a[2]
			r := w.leaf.Call(e, p+q, s)
			sum, prod := r[0], r[1]
			if sum != p+q+s || prod != (p+q)*s {
				t.Errorf("mid: leaf(%d, %d) returned %d, %d", p+q, s, sum, prod)
			}
			wantArgs("mid", a, p, q, s)
			return e.Ret(sum, prod)
		}},
		// mid_grow appends to its argument slice, then crosses deeper: the
		// grown slice must be a private copy, or the deeper call's words
		// would land on top of the appended one.
		{Name: "mid_grow", RegArgs: 2, Fn: func(e *Env, a []uint64) []uint64 {
			grown := append(a, 0x99)
			w.leaf.Call(e, 100, 200)
			wantArgs("mid_grow args", a, 7, 8)
			wantArgs("mid_grow grown", grown, 7, 8, 0x99)
			return e.Ret(uint64(len(grown)))
		}},
		{Name: "mid_fault", RegArgs: 3, Fn: func(e *Env, a []uint64) []uint64 {
			w.badFault.Call(e, a[0], a[1], a[2], 4)
			t.Error("mid_fault: the faulting callee returned")
			return nil
		}},
	}})
	b.MustAdd(&Component{Name: "LEAF", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "leaf", RegArgs: 2, Fn: func(e *Env, a []uint64) []uint64 {
			return e.Ret(a[0]+a[1], a[0]*a[1])
		}},
		{Name: "leaf3", RegArgs: 3, Fn: func(e *Env, a []uint64) []uint64 {
			return e.Ret(a[0]+a[1], a[2])
		}},
		{Name: "leaf_five", Fn: func(e *Env, a []uint64) []uint64 {
			return e.Ret(1, 2, 3, 4, 5)
		}},
		{Name: "leaf_noop", Fn: func(e *Env, a []uint64) []uint64 { return nil }},
	}})
	b.MustAdd(&Component{Name: "BAD", Kind: KindIsolated, Exports: []ExportDecl{
		// bad_fault stores through its first word, an address on APP's heap
		// no window covers: a protection fault three crossings below APP.
		{Name: "bad_fault", RegArgs: 4, Fn: func(e *Env, a []uint64) []uint64 {
			e.StoreByte(vm.Addr(a[0]), 1)
			return nil
		}},
	}})
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(ModeFull, cycles.DefaultCosts())
	if wire != nil {
		wire(m)
	}
	cubs, err := NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.m, w.si, w.cubs = m, si, cubs
	w.env = m.NewEnv(m.NewThread())
	app, top, mid := cubs["APP"].ID, cubs["TOP"].ID, cubs["MID"].ID
	w.top = m.MustResolve(app, "TOP", "top")
	w.mid = m.MustResolve(top, "MID", "mid")
	w.leaf = m.MustResolve(mid, "LEAF", "leaf")
	w.grow = m.MustResolve(app, "MID", "mid_grow")
	w.five = m.MustResolve(app, "LEAF", "leaf_five")
	w.noop = m.MustResolve(app, "LEAF", "leaf_noop")
	w.deep = m.MustResolve(app, "TOP", "top_deep")
	w.midFault = m.MustResolve(top, "MID", "mid_fault")
	w.badFault = m.MustResolve(mid, "BAD", "bad_fault")
	w.leaf3 = m.MustResolve(app, "LEAF", "leaf3")
	w.monLeaf3 = m.MustResolve(MonitorID, "LEAF", "leaf3")
	return w
}

// chain drives APP → TOP → MID → LEAF with words derived from k and checks
// what comes back at the top.
func (w *abiWorld) chain(t testing.TB, e *Env, k uint64) {
	r := w.top.Call(e, k, k+1, k+2)
	p, q, s := 10*k, 10*(k+1), 10*(k+2)
	if r[0] != p+q+s+1 || r[1] != (p+q)*s+2 {
		t.Errorf("top(%d, %d, %d) returned %d, %d; want %d, %d", k, k+1, k+2, r[0], r[1], p+q+s+1, (p+q)*s+2)
	}
}

func TestCrossingABINestedWordsAndResults(t *testing.T) {
	w := bootABI(t, nil)
	w.enter(t, "APP", func(e *Env) {
		for k := uint64(1); k <= 3; k++ {
			w.chain(t, e, k)
		}
		if n := len(e.T.words); n != 0 {
			t.Errorf("%d words left on the word stack after the chain returned", n)
		}
	})
}

func TestCrossingABICalleeAppendGetsPrivateCopy(t *testing.T) {
	w := bootABI(t, nil)
	w.enter(t, "APP", func(e *Env) {
		// The chain first, so the word stack has spare capacity above
		// mid_grow's two words: only the clamp stands between its append and
		// the words of the call below it.
		w.chain(t, e, 1)
		if n := w.grow.Call(e, 7, 8)[0]; n != 3 {
			t.Errorf("mid_grow returned %d, want 3", n)
		}
	})
}

// TestCrossingABIFaultUnwindsWordStack: a fault contained three crossings
// deep rolls the word stack back with the frames, the next call sees its
// own arguments, and a thousand such faults leave the stack's capacity
// where the first one put it. The first fault quarantines BAD, so later
// ones are refused in MID's call prelude or follow a restart — every kind
// unwinds through the same two live frames.
func TestCrossingABIFaultUnwindsWordStack(t *testing.T) {
	w := bootABI(t, func(m *Monitor) { m.EnableContainment(DefaultRestartPolicy()) })
	foreign := uint64(w.heapIn(t, "APP", 64))
	w.enter(t, "APP", func(e *Env) {
		var capAfterFirst int
		for i := 0; i < 1000; i++ {
			if cf := CatchContained(func() { w.deep.Call(e, foreign, uint64(i)) }); cf == nil {
				t.Fatalf("fault %d was not delivered", i)
			}
			if n, d := len(e.T.words), e.T.Depth(); n != 0 || d != 1 {
				t.Fatalf("after contained fault %d: %d words, depth %d; want 0, 1", i, n, d)
			}
			if i == 0 {
				capAfterFirst = cap(e.T.words)
				w.chain(t, e, 5)
			}
		}
		if c := cap(e.T.words); c != capAfterFirst {
			t.Errorf("word stack capacity grew from %d to %d over 1000 contained faults", capAfterFirst, c)
		}
		w.chain(t, e, 6)
	})
	if n := len(w.env.T.words); n != 0 {
		t.Errorf("%d words on the word stack at depth 0", n)
	}
}

func TestCrossingABIFiveResultWordsTakeTheFallback(t *testing.T) {
	w := bootABI(t, nil)
	w.enter(t, "APP", func(e *Env) {
		r := w.five.Call(e)
		w.noop.Call(e) // five words do not fit the scratch, so this poisons nothing of r
		if len(r) != 5 {
			t.Fatalf("%d result words, want 5", len(r))
		}
		for i, v := range r {
			if v != uint64(i+1) {
				t.Fatalf("result words %v, want [1 2 3 4 5]", r)
			}
		}
	})
}

// TestCrossingABIStaleResultReadsPoison pins the contract itself: a result
// slice is valid until the thread's next Call. Holding one across a call
// reads the poison pattern — deterministically wrong, so a golden breaks —
// and making this test pass by allocating results again undoes the point.
func TestCrossingABIStaleResultReadsPoison(t *testing.T) {
	w := bootABI(t, nil)
	w.enter(t, "APP", func(e *Env) {
		held := w.leaf3.Call(e, 1, 2, 3)
		if held[0] != 3 || held[1] != 3 {
			t.Fatalf("leaf3(1, 2, 3) returned %v, want [3 3]", held)
		}
		w.noop.Call(e)
		if held[0] != retPoison || held[1] != retPoison {
			t.Errorf("a result held across a later call reads %#x, %#x; want the poison pattern %#x",
				held[0], held[1], uint64(retPoison))
		}
	})
}

// TestCrossingABIParallelWorkers interleaves the chain, the append and a
// held result across four interleaved threads: the word stack and the
// result scratch are per thread, so a result one thread holds survives the
// other three threads' calls and every thread sees only its own words.
func TestCrossingABIParallelWorkers(t *testing.T) {
	const cores, iters = 4, 300
	w := bootABI(t, nil)
	w.m.EnableSMP(cores)
	workers := make([]*Env, cores)
	held := make([][]uint64, cores)
	for c := range workers {
		workers[c] = newWorker(w.m)
		enterOn(w.testSystem, workers[c], "APP")
	}
	roundRobin(cores, iters, func(c, i int) {
		e := workers[c]
		// held[c] was returned one round ago and the other three threads
		// have each run a full step since; only this thread's next call
		// poisons it.
		if i > 0 && (held[c][0] != uint64(c+i-1) || held[c][1] != 3) {
			t.Fatalf("worker %d: result held across other threads' calls reads %v, want [%d 3]",
				c, held[c], c+i-1)
		}
		w.chain(t, e, uint64(1000*c+i))
		if n := w.grow.Call(e, 7, 8)[0]; n != 3 {
			t.Errorf("worker %d: mid_grow returned %d, want 3", c, n)
		}
		held[c] = w.leaf3.Call(e, uint64(c), uint64(i), 3)
	})
	for c, e := range workers {
		if n := len(e.T.words); n != 0 {
			t.Errorf("worker %d: %d words left on the word stack", c, n)
		}
		leaveOn(w.testSystem, e)
	}
}
