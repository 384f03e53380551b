package cubicle

import (
	"errors"
	"testing"

	"cubicleos/internal/cycles"
	"cubicleos/internal/vm"
)

// bootFaulty boots a supervised three-cubicle world for containment tests:
//
//	APP — the caller driving the tests.
//	SVC — a service with exports that fault in controlled ways.
//	MID — a middleman that opens a window of its own, then calls SVC.
//
// restarts, if non-nil, is incremented by SVC's OnRestart hook.
func bootFaulty(t testing.TB, policy RestartPolicy, restarts *int) *testSystem {
	t.Helper()
	ts := &testSystem{}
	b := NewBuilder()
	b.MustAdd(&Component{Name: "APP", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "app_noop", Fn: func(e *Env, args []uint64) []uint64 { return nil }},
	}})
	svc := &Component{Name: "SVC", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "svc_ok", Fn: func(e *Env, args []uint64) []uint64 { return []uint64{7} }},
		// svc_touch stores one byte at the given address: a foreign address
		// raises a protection fault inside SVC.
		{Name: "svc_touch", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			e.StoreByte(vm.Addr(args[0]), 1)
			return nil
		}},
		// svc_leak creates and opens a window on its own heap, then
		// faults — the containment journal must clean all of it up.
		{Name: "svc_leak", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			buf := e.HeapAlloc(64)
			ts.leakBuf = buf
			wid := e.WindowInit()
			e.WindowAdd(wid, buf, 64)
			e.WindowOpen(wid, e.Caller())
			e.StoreByte(vm.Addr(args[0]), 1)
			return nil
		}},
		{Name: "svc_alloc", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			return []uint64{uint64(e.HeapAlloc(args[0]))}
		}},
		{Name: "svc_spin", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			for i := uint64(0); i < args[0]; i++ {
				e.Work(1_000)
			}
			return nil
		}},
		// svc_spin_n is svc_spin as one advance of the clock.
		{Name: "svc_spin_n", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			e.WorkN(1_000, args[0])
			return nil
		}},
		{Name: "svc_bug", Fn: func(e *Env, args []uint64) []uint64 {
			panic("svc application bug")
		}},
	}}
	if restarts != nil {
		svc.OnRestart = func() { *restarts++ }
	}
	b.MustAdd(svc)
	b.MustAdd(&Component{Name: "MID", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "mid_call", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			buf := e.HeapAlloc(32)
			wid := e.WindowInit()
			e.WindowAdd(wid, buf, 32)
			h := e.M.MustResolve(e.Cubicle(), "SVC", "svc_touch")
			h.Call(e, args[0])
			return nil
		}},
	}})
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(ModeFull, cycles.DefaultCosts())
	m.EnableContainment(policy)
	cubs, err := NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts.m, ts.si, ts.cubs = m, si, cubs
	ts.env = m.NewEnv(m.NewThread())
	return ts
}

func TestContainedFaultUnwindsToCrossing(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	appBuf := ts.heapIn(t, "APP", 8)
	svcID := ts.cubs["SVC"].ID
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_touch")
		cf := CatchContained(func() { h.Call(e, uint64(appBuf)) })
		if cf == nil {
			t.Fatal("fault in SVC was not contained")
		}
		if cf.Cubicle != svcID {
			t.Errorf("fault attributed to cubicle %d, want SVC %d", cf.Cubicle, svcID)
		}
		var pf *ProtectionFault
		if !errors.As(cf, &pf) {
			t.Errorf("cause = %v, want a *ProtectionFault", cf.Cause)
		}
		// The unwind stopped at the crossing: the thread is back in APP with
		// its original frame depth, and APP can keep computing.
		if e.Cubicle() != ts.cubs["APP"].ID {
			t.Errorf("thread left in cubicle %d after containment", e.Cubicle())
		}
		if got := len(e.T.frames); got != 1 {
			t.Errorf("frame depth after containment = %d, want 1", got)
		}
		e.StoreByte(appBuf, 0x55) // APP's own memory still accessible
	})
	if h := ts.cubs["SVC"].Health(); h != Quarantined {
		t.Errorf("SVC health = %v, want Quarantined", h)
	}
	// Calls into the quarantined cubicle fail fast, attributably.
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_ok")
		cf := CatchContained(func() { h.Call(e) })
		if cf == nil || !errors.Is(cf, ErrQuarantined) {
			t.Fatalf("call into quarantined cubicle: got %v, want ErrQuarantined", cf)
		}
	})
	st := ts.m.Stats
	if st.ContainedFaults != 2 || st.Quarantines != 1 {
		t.Errorf("ContainedFaults=%d Quarantines=%d, want 2 and 1",
			st.ContainedFaults, st.Quarantines)
	}
	if st.Restarts != 0 {
		t.Errorf("Restarts=%d before any backoff expiry", st.Restarts)
	}
}

// TestContainmentRollsBackWindowLeaks is the fault-path leak satellite: a
// callee that created and opened windows before faulting must leave no
// window descriptors and no journal entries behind.
func TestContainmentRollsBackWindowLeaks(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	appBuf := ts.heapIn(t, "APP", 8)
	svcID := ts.cubs["SVC"].ID
	winBefore := ts.m.WindowCount(svcID)
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_leak")
		if cf := CatchContained(func() { h.Call(e, uint64(appBuf)) }); cf == nil {
			t.Fatal("svc_leak did not fault")
		}
	})
	if got := ts.m.WindowCount(svcID); got != winBefore {
		t.Errorf("window count after contained fault = %d, want %d (leak)", got, winBefore)
	}
	if got := len(ts.env.T.journal); got != 0 {
		t.Errorf("containment journal holds %d entries after full unwind", got)
	}
}

// TestContainmentPreservesOtherOwnersState: when SVC faults under MID, the
// fault is attributed to SVC at the innermost crossing and MID's own
// window-state changes survive — only the culprit's span is rolled back.
func TestContainmentPreservesOtherOwnersState(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	appBuf := ts.heapIn(t, "APP", 8)
	svcID, midID := ts.cubs["SVC"].ID, ts.cubs["MID"].ID
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "MID", "mid_call")
		cf := CatchContained(func() { h.Call(e, uint64(appBuf)) })
		if cf == nil {
			t.Fatal("nested fault was not contained")
		}
		if cf.Cubicle != svcID {
			t.Errorf("nested fault attributed to %d, want the actual culprit SVC %d",
				cf.Cubicle, svcID)
		}
	})
	if h := ts.cubs["MID"].Health(); h != Healthy {
		t.Errorf("MID health = %v, want Healthy (it did not fault)", h)
	}
	if h := ts.cubs["SVC"].Health(); h != Quarantined {
		t.Errorf("SVC health = %v, want Quarantined", h)
	}
	if got := ts.m.WindowCount(midID); got != 1 {
		t.Errorf("MID window count = %d, want its own window preserved", got)
	}
	if got := ts.m.WindowCount(svcID); got != 0 {
		t.Errorf("SVC window count = %d, want 0", got)
	}
}

// TestForeignPanicNotContained: plain Go bugs are not isolation faults and
// must pass through supervised crossings untouched.
func TestForeignPanicNotContained(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		ts.enter(t, "APP", func(e *Env) {
			h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_bug")
			h.Call(e)
		})
	}()
	if recovered != any("svc application bug") {
		t.Fatalf("foreign panic arrived as %#v, want the original value", recovered)
	}
	if h := ts.cubs["SVC"].Health(); h != Healthy {
		t.Errorf("SVC quarantined for a foreign panic: health = %v", h)
	}
	if ts.m.Stats.ContainedFaults != 0 {
		t.Errorf("ContainedFaults = %d for a foreign panic", ts.m.Stats.ContainedFaults)
	}
}
