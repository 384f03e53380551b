package cubicle

import (
	"errors"
	"testing"

	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// faultSVC makes one contained call into SVC with a foreign address and
// asserts it was contained.
func faultSVC(t *testing.T, ts *testSystem, appBuf vm.Addr) *ContainedFault {
	t.Helper()
	var cf *ContainedFault
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_touch")
		cf = CatchContained(func() { h.Call(e, uint64(appBuf)) })
	})
	if cf == nil {
		t.Fatal("fault in SVC was not contained")
	}
	return cf
}

// callSVCOk calls svc_ok and returns the contained fault, if any.
func callSVCOk(t *testing.T, ts *testSystem) (ret uint64, cf *ContainedFault) {
	t.Helper()
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_ok")
		cf = CatchContained(func() { ret = h.Call(e)[0] })
	})
	return ret, cf
}

func TestSupervisorRestartAfterBackoff(t *testing.T) {
	policy := DefaultRestartPolicy()
	hookRuns := 0
	ts := bootFaulty(t, policy, &hookRuns)
	appBuf := ts.heapIn(t, "APP", 8)
	svc := ts.cubs["SVC"]

	// Put some heap state into SVC so the restart has pages to reclaim.
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_alloc")
		if addr := h.Call(e, 4*vm.PageSize)[0]; addr == 0 {
			t.Fatal("svc_alloc failed")
		}
	})
	faultSVC(t, ts, appBuf)
	oldStack := ts.env.T.stacks[svc.ID] // cached by the two crossings above

	// Before the backoff expires, calls are refused without a restart.
	if _, cf := callSVCOk(t, ts); cf == nil || !errors.Is(cf, ErrQuarantined) {
		t.Fatalf("call before backoff expiry: got %v, want ErrQuarantined", cf)
	}
	if svc.Restarts() != 0 {
		t.Fatalf("restarted before backoff expiry")
	}

	// Advance the virtual clock past the backoff: the next call restarts
	// SVC in place and succeeds.
	ts.m.Clock.Charge(policy.BackoffMax)
	before := ts.m.Clock.Cycles()
	ret, cf := callSVCOk(t, ts)
	if cf != nil {
		t.Fatalf("call after backoff expiry failed: %v", cf)
	}
	if ret != 7 {
		t.Errorf("svc_ok returned %d after restart, want 7", ret)
	}
	if svc.Health() != Healthy || svc.Restarts() != 1 {
		t.Errorf("health=%v restarts=%d, want Healthy/1", svc.Health(), svc.Restarts())
	}
	if hookRuns != 1 {
		t.Errorf("OnRestart hook ran %d times, want 1", hookRuns)
	}
	if got := ts.m.Clock.Cycles() - before; got < policy.RestartCost {
		t.Errorf("restart charged %d cycles, want >= RestartCost %d", got, policy.RestartCost)
	}
	if ts.m.Stats.Restarts != 1 {
		t.Errorf("Stats.Restarts = %d, want 1", ts.m.Stats.Restarts)
	}
	// The faulted incarnation's heap pages were reclaimed: only the pages
	// the new incarnation touched (fresh stack) may be owned by SVC.
	heapPages := 0
	ts.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if ID(p.Owner) == svc.ID && p.Type == vm.PageHeap {
			heapPages++
		}
	})
	if heapPages != 0 {
		t.Errorf("%d heap pages still owned by SVC after restart", heapPages)
	}
	// The thread's cached SVC stack went with them: the call that restarted
	// SVC crossed on a freshly mapped stack, and no other stack page is left.
	newStack := ts.env.T.stacks[svc.ID]
	if oldStack == nil || newStack == nil || newStack == oldStack {
		t.Fatalf("SVC stack before/after restart = %p/%p, want two distinct stacks", oldStack, newStack)
	}
	stackPages := 0
	ts.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if ID(p.Owner) == svc.ID && p.Type == vm.PageStack {
			stackPages++
			if a := vm.PageAddr(pn); a < newStack.base || a >= newStack.base.Add(newStack.size) {
				t.Errorf("stack page %#x survived the restart outside the new stack", uint64(a))
			}
		}
	})
	if stackPages != StackPages {
		t.Errorf("%d stack pages owned by SVC after restart, want the new stack's %d", stackPages, StackPages)
	}
	if err := errors.Unwrap(svc.LastFault()); err != nil {
		_ = err // LastFault is informational; just ensure it is set
	}
	if svc.LastFault() == nil {
		t.Error("LastFault not recorded")
	}
}

func TestSupervisorDeathAfterRestartExhaustion(t *testing.T) {
	policy := DefaultRestartPolicy()
	policy.MaxRestarts = 2
	policy.RestartWindow = 1 << 62 // nothing ever ages out
	ts := bootFaulty(t, policy, nil)
	appBuf := ts.heapIn(t, "APP", 8)
	svc := ts.cubs["SVC"]

	for i := 0; i < 2; i++ {
		faultSVC(t, ts, appBuf)
		ts.m.Clock.Charge(policy.BackoffMax)
		if _, cf := callSVCOk(t, ts); cf != nil {
			t.Fatalf("restart %d refused: %v", i+1, cf)
		}
	}
	// Third fault: the budget is exhausted, the refused restart kills it.
	faultSVC(t, ts, appBuf)
	ts.m.Clock.Charge(policy.BackoffMax)
	if _, cf := callSVCOk(t, ts); cf == nil || !errors.Is(cf, ErrDead) {
		t.Fatalf("call after exhaustion: got %v, want ErrDead", cf)
	}
	if svc.Health() != Dead {
		t.Errorf("health = %v, want Dead", svc.Health())
	}
	if n := deadCubicles(ts.m); n != 1 {
		t.Errorf("%d dead cubicles, want 1", n)
	}
	// Dead is permanent: even after more virtual time, still refused.
	ts.m.Clock.Charge(1 << 40)
	if _, cf := callSVCOk(t, ts); cf == nil || !errors.Is(cf, ErrDead) {
		t.Fatalf("dead cubicle answered: %v", cf)
	}
	if svc.Restarts() != 2 {
		t.Errorf("Restarts() = %d, want 2", svc.Restarts())
	}
}

// TestSupervisorDeathHappensExactlyOnce: exhausting the restart budget
// transitions Quarantined→Dead exactly once — further faults, calls and
// virtual time must neither resurrect the cubicle nor record more deaths,
// so the health surfaced by cubicle-inspect stays consistent forever.
func TestSupervisorDeathHappensExactlyOnce(t *testing.T) {
	policy := DefaultRestartPolicy()
	policy.MaxRestarts = 1
	policy.RestartWindow = 1 << 62
	ts := bootFaulty(t, policy, nil)
	appBuf := ts.heapIn(t, "APP", 8)
	svc := ts.cubs["SVC"]

	faultSVC(t, ts, appBuf)
	ts.m.Clock.Charge(policy.BackoffMax)
	if _, cf := callSVCOk(t, ts); cf != nil {
		t.Fatalf("first restart refused: %v", cf)
	}
	faultSVC(t, ts, appBuf)
	ts.m.Clock.Charge(policy.BackoffMax)
	if _, cf := callSVCOk(t, ts); cf == nil || !errors.Is(cf, ErrDead) {
		t.Fatalf("call after exhaustion: got %v, want ErrDead", cf)
	}
	if n := deadCubicles(ts.m); svc.Health() != Dead || n != 1 {
		t.Fatalf("health=%v deaths=%d, want Dead/1", svc.Health(), n)
	}
	// Hammer the corpse: every poke is refused with ErrDead, the death
	// counter never moves again, and health never leaves Dead.
	for i := 0; i < 5; i++ {
		ts.m.Clock.Charge(policy.BackoffMax * 10)
		if _, cf := callSVCOk(t, ts); cf == nil || !errors.Is(cf, ErrDead) {
			t.Fatalf("poke %d: got %v, want ErrDead", i, cf)
		}
	}
	if n := deadCubicles(ts.m); n != 1 {
		t.Errorf("%d dead cubicles after repeated pokes, want still 1", n)
	}
	if svc.Health() != Dead {
		t.Errorf("health = %v after repeated pokes, want still Dead", svc.Health())
	}
	if svc.Restarts() != 1 {
		t.Errorf("Restarts() = %d, want 1 (the single consumed budget)", svc.Restarts())
	}
}

// TestSupervisorRestartWindowSlides: restarts age out of the sliding
// window, so a cubicle that faults rarely never accumulates enough
// strikes to die, no matter how long the system runs.
func TestSupervisorRestartWindowSlides(t *testing.T) {
	policy := DefaultRestartPolicy()
	policy.MaxRestarts = 2
	policy.RestartWindow = 1_000_000
	ts := bootFaulty(t, policy, nil)
	appBuf := ts.heapIn(t, "APP", 8)
	svc := ts.cubs["SVC"]

	for i := 0; i < 5; i++ {
		faultSVC(t, ts, appBuf)
		ts.m.Clock.Charge(policy.BackoffMax)
		if _, cf := callSVCOk(t, ts); cf != nil {
			t.Fatalf("restart %d refused: %v", i+1, cf)
		}
		// Let the strike age past the window before the next fault.
		ts.m.Clock.Charge(policy.RestartWindow * 2)
	}
	if svc.Health() != Healthy {
		t.Errorf("health = %v after spaced faults, want Healthy", svc.Health())
	}
	if svc.Restarts() != 5 {
		t.Errorf("Restarts() = %d, want 5", svc.Restarts())
	}
	if n := deadCubicles(ts.m); n != 0 {
		t.Errorf("%d dead cubicles, want 0 — spaced faults must never kill", n)
	}
}

func TestSupervisorBackoffEscalatesOnVirtualClock(t *testing.T) {
	policy := DefaultRestartPolicy()
	ts := bootFaulty(t, policy, nil)
	appBuf := ts.heapIn(t, "APP", 8)
	svc := ts.cubs["SVC"]

	faultSVC(t, ts, appBuf)
	first := svc.restartAt - ts.m.Clock.Cycles()
	if first != policy.BackoffBase {
		t.Fatalf("first backoff = %d, want BackoffBase %d", first, policy.BackoffBase)
	}
	// Expire the backoff; the next svc_touch call restarts SVC and then
	// faults again immediately — a consecutive fault, so the backoff doubles.
	ts.m.Clock.Charge(policy.BackoffMax)
	faultSVC(t, ts, appBuf)
	second := svc.restartAt - ts.m.Clock.Cycles()
	if second != policy.BackoffBase*policy.BackoffFactor {
		t.Fatalf("second consecutive backoff = %d, want %d",
			second, policy.BackoffBase*policy.BackoffFactor)
	}
	// A healthy call in between resets the streak.
	ts.m.Clock.Charge(policy.BackoffMax)
	if _, cf := callSVCOk(t, ts); cf != nil {
		t.Fatalf("recovery call failed: %v", cf)
	}
	faultSVC(t, ts, appBuf)
	third := svc.restartAt - ts.m.Clock.Cycles()
	if third != policy.BackoffBase {
		t.Errorf("backoff after healthy call = %d, want reset to BackoffBase %d",
			third, policy.BackoffBase)
	}
}

func TestSupervisorBackoffCap(t *testing.T) {
	for n, want := range map[int]uint64{1: 100, 2: 200, 3: 400, 4: 800, 5: 1000, 50: 1000} {
		if got := Backoff(100, 2, 1000, n); got != want {
			t.Errorf("Backoff(%d) = %d, want %d", n, got, want)
		}
	}
	// Overflow-safe for absurd consecutive-fault counts.
	if got := Backoff(100, 2, 1<<63, 500); got != 1<<63 {
		t.Errorf("Backoff(500) = %d, want the cap", got)
	}
}

// TestSupervisorRefusesRestartUnderLiveFrame: a cubicle with a frame still
// on any thread's stack must not be reinitialised out from under it.
func TestSupervisorRefusesRestartUnderLiveFrame(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	svc := ts.cubs["SVC"]
	svc.health = Quarantined
	svc.restartAt = 0
	ts.enter(t, "SVC", func(e *Env) {
		if ts.m.sup.restart(svc) {
			t.Error("restart succeeded while SVC had a live frame")
		}
	})
	if svc.Health() != Quarantined {
		t.Errorf("health = %v, want still Quarantined", svc.Health())
	}
	// With the frame gone the same restart goes through.
	if !ts.m.sup.restart(svc) {
		t.Error("restart refused with no live frames")
	}
	if svc.Health() != Healthy {
		t.Errorf("health = %v, want Healthy", svc.Health())
	}
}

func TestWatchdogRaisesBudgetFault(t *testing.T) {
	policy := DefaultRestartPolicy()
	policy.CrossingBudget = 100_000
	ts := bootFaulty(t, policy, nil)
	trc := ts.m.EnableTracing(1 << 10)
	svc := ts.cubs["SVC"]
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_spin")
		cf := CatchContained(func() { h.Call(e, 1_000_000) })
		if cf == nil {
			t.Fatal("runaway crossing was not contained")
		}
		var bf *BudgetFault
		if !errors.As(cf, &bf) {
			t.Fatalf("cause = %v, want a *BudgetFault", cf.Cause)
		}
		if bf.Used <= bf.Budget || bf.Budget != policy.CrossingBudget {
			t.Errorf("budget fault used=%d budget=%d", bf.Used, bf.Budget)
		}
	})
	if svc.Health() != Quarantined {
		t.Errorf("runaway cubicle health = %v, want Quarantined", svc.Health())
	}
	var classes []string
	for _, ev := range trc.Events() {
		if ev.Kind == trace.EvContained {
			classes = append(classes, ev.Name)
		}
	}
	if len(classes) != 1 || classes[0] != "budget" {
		t.Errorf("contained-fault classes %q, want [budget]", classes)
	}
}

// TestWorkNEqualsRepeatedWork: WorkN(n, k) leaves the clock where k calls
// of Work(n) do at every work scale (boot.UnikraftWorkScale is 3.4; boot
// imports this package) and still ends in the watchdog checkpoint.
func TestWorkNEqualsRepeatedWork(t *testing.T) {
	for _, scale := range []float64{0, 1, 3.4, 3.4 * 1.37} {
		ts := bootPair(t, ModeFull)
		if scale != 0 {
			ts.m.Clock.SetWorkScale(scale)
		}
		ts.enter(t, "FOO", func(e *Env) {
			for _, k := range []uint64{0, 1, 9} {
				for _, n := range []uint64{1, 18, 120, 2500} {
					start := ts.m.Clock.Cycles()
					e.WorkN(n, k)
					once := ts.m.Clock.Cycles() - start
					start = ts.m.Clock.Cycles()
					for i := uint64(0); i < k; i++ {
						e.Work(n)
					}
					if many := ts.m.Clock.Cycles() - start; once != many {
						t.Errorf("scale %v: WorkN(%d, %d) charged %d cycles, %d calls of Work %d", scale, n, k, once, k, many)
					}
				}
			}
		})
	}

	policy := DefaultRestartPolicy()
	policy.CrossingBudget = 100_000
	ts := bootFaulty(t, policy, nil)
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_spin_n")
		var bf *BudgetFault
		if cf := CatchContained(func() { h.Call(e, 1_000) }); cf == nil || !errors.As(cf, &bf) {
			t.Fatalf("WorkN past the crossing budget: %v, want a *BudgetFault", cf)
		}
	})
}

// deadCubicles counts the cubicles declared Dead.
func deadCubicles(m *Monitor) int {
	n := 0
	for _, c := range m.Cubicles() {
		if c.Health() == Dead {
			n++
		}
	}
	return n
}
