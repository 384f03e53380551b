package cubicle

import (
	"errors"
	"testing"
)

// TestRetryContainedRecoversTransientFault: a call refused by a
// quarantined dependency succeeds once RetryContained has backed off past
// the quarantine, with the backoff charged to the virtual clock, each
// retry traced and the dependency restarted in place.
func TestRetryContainedRecoversTransientFault(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil) // quarantine backoff 100 000 cycles
	svc := ts.cubs["SVC"]
	faultSVC(t, ts, ts.heapIn(t, "APP", 8))
	policy := RetryPolicy{MaxAttempts: 3, BackoffBase: 40_000, BackoffFactor: 2, BackoffMax: 1_000_000}
	attempts := 0
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_ok")
		before := ts.m.Clock.Cycles()
		cf := RetryContained(e, policy, func() {
			attempts++
			h.Call(e)
		})
		if cf != nil {
			t.Fatalf("retry did not recover: %v", cf)
		}
		if attempts != 3 {
			t.Errorf("fn ran %d times, want 3", attempts)
		}
		if elapsed := ts.m.Clock.Cycles() - before; elapsed < 40_000+80_000 {
			t.Errorf("backoff charged %d cycles, want >= 120000", elapsed)
		}
	})
	if ts.m.Stats.Retries != 2 || ts.m.Stats.Restarts != 1 {
		t.Errorf("Stats.Retries = %d, Restarts = %d, want 2 and 1", ts.m.Stats.Retries, ts.m.Stats.Restarts)
	}
	if svc.Health() != Healthy {
		t.Errorf("SVC health after the retried call = %v, want Healthy", svc.Health())
	}
}

// TestRetryContainedGivesUpAndStopsOnDeterministicFault: a deterministic
// fault (protection violation) is not retried at all — retrying cannot
// unbreak it — and retries of the quarantine it leaves are bounded by the
// policy.
func TestRetryContainedGivesUpAndStopsOnDeterministicFault(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	svc := ts.cubs["SVC"]
	policy := RetryPolicy{MaxAttempts: 3, BackoffBase: 1_000, BackoffFactor: 2, BackoffMax: 10_000}
	appBuf := ts.heapIn(t, "APP", 8)
	deterministic := 0
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_touch")
		cf := RetryContained(e, policy, func() {
			deterministic++
			h.Call(e, uint64(appBuf))
		})
		var pf *ProtectionFault
		if !errors.As(cf, &pf) {
			t.Fatalf("cause = %v, want a *ProtectionFault", cf)
		}
		if deterministic != 1 || ts.m.Stats.Retries != 0 {
			t.Errorf("fn ran %d times with %d retries, want 1 and 0", deterministic, ts.m.Stats.Retries)
		}
	})
	if svc.Health() != Quarantined {
		t.Fatalf("protection fault left SVC %v; quarantine expected", svc.Health())
	}
	// 1 000 + 2 000 cycles of backoff stay inside the 100 000-cycle
	// quarantine: every attempt is refused and the helper gives up.
	attempts := 0
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_ok")
		cf := RetryContained(e, policy, func() {
			attempts++
			h.Call(e)
		})
		if cf == nil || cf.Cause != ErrQuarantined {
			t.Fatalf("retries against a quarantined SVC: %v, want ErrQuarantined", cf)
		}
		if attempts != 3 || ts.m.Stats.Retries != 2 {
			t.Errorf("fn ran %d times with %d retries, want MaxAttempts=3 and 2", attempts, ts.m.Stats.Retries)
		}
	})
}
