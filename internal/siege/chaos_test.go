package siege

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/ramfs"
)

// TestSiegeUnderChaos is the robustness acceptance test: a full NGINX
// deployment under supervision, with deterministic fault injection aimed at
// the RAMFS cubicle at a >1% rate per crossing, serving a siege workload.
// Every injected fault must be contained at a crossing (an uncontained
// panic fails the test immediately), the server must keep answering —
// degraded (503 or truncated) while its file system is down, 200 again
// after the supervisor restarts it — and the cycle profile must still
// cover the whole chaotic run.
func TestSiegeUnderChaos(t *testing.T) {
	// Death is exercised in the supervisor tests: Chaotic allows 1000
	// restarts.
	tgt, err := NewTargetOpts(Options{
		Mode:        cubicle.ModeFull,
		TraceEvents: 1 << 14,
	}.Chaotic(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f.bin", make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	ramfsCub := tgt.Sys.Cubs[ramfs.Name]

	tgt.Sys.Chaos.Arm()
	statuses := map[int]int{}
	truncated := 0
	for i := 0; i < 40; i++ {
		res, err := tgt.Fetch("/f.bin")
		// Whatever this request's contained faults and restarts did, every
		// cubicle's owned-page list still is what the page table holds.
		if err := cubicletest.OwnedPages(m); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err != nil {
			// A connection the server had to abort mid-response (fault after
			// bytes hit the wire): HTTP/1.0 signals that by closing early.
			truncated++
			continue
		}
		statuses[res.Status]++
		if res.Status == 404 {
			// The restarted RAMFS incarnation boots empty; re-provisioning is
			// the operator's recovery action. It may itself be refused while
			// RAMFS is still in quarantine backoff — tolerate and retry later.
			_ = tgt.PutFile("/f.bin", make([]byte, 16<<10))
		}
	}
	tgt.Sys.Chaos.Disarm()

	st := m.Stats
	if st.InjectedFaults == 0 {
		t.Fatal("chaos run injected no faults; the schedule or rate is broken")
	}
	if st.ContainedFaults == 0 || st.Quarantines == 0 {
		t.Fatalf("faults were injected but not contained: %+v", st)
	}
	if st.Restarts == 0 {
		t.Fatalf("quarantined cubicle was never restarted: %+v", st)
	}
	if tgt.Srv.Errors503 == 0 {
		t.Error("no connection was degraded by the server despite contained faults")
	}
	if statuses[503] == 0 {
		t.Errorf("no 503 reached the client while the file system was down: %v (truncated %d)",
			statuses, truncated)
	}
	if statuses[200] == 0 {
		t.Errorf("no request succeeded across the whole chaos run: %v", statuses)
	}

	// Recovery: with injection off, re-provision (waiting out any remaining
	// quarantine backoff on the virtual clock) and the server must serve 200.
	provisioned := false
	for i := 0; i < 50; i++ {
		if err := tgt.PutFile("/f.bin", make([]byte, 16<<10)); err == nil {
			provisioned = true
			break
		}
		m.Clock.Charge(cubicle.DefaultRestartPolicy().BackoffMax)
	}
	if !provisioned {
		t.Fatalf("could not re-provision after chaos; RAMFS health = %v, last fault: %v",
			ramfsCub.Health(), ramfsCub.LastFault())
	}
	res, err := tgt.Fetch("/f.bin")
	if err != nil {
		t.Fatalf("post-recovery fetch: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("post-recovery status = %d, want 200", res.Status)
	}
	if len(res.Body) != 16<<10 {
		t.Errorf("post-recovery body = %d bytes, want %d", len(res.Body), 16<<10)
	}
	if h := ramfsCub.Health(); h != cubicle.Healthy {
		t.Errorf("RAMFS health after recovery = %v, want Healthy", h)
	}
	if ramfsCub.Restarts() == 0 {
		t.Error("RAMFS records no restarts after a chaos run that recovered")
	}

	prof := m.Tracer().Profile()
	cover := float64(prof.TotalCycles) / float64(m.Clock.Cycles())
	if cover < 0.99 || cover > 1.01 {
		t.Errorf("profile covers %.4f of the virtual clock under chaos", cover)
	}
}

// TestChaosSchedulePinned pins reproducibility end to end: a
// target booted with seed 21 and driven through the same workload matches
// its pinned stream digest: the fault schedule, every crossing and the
// containment counters.
func TestChaosSchedulePinned(t *testing.T) {
	policy := cubicle.DefaultRestartPolicy()
	policy.MaxRestarts = 1000
	tgt, err := NewTargetOpts(Options{
		Mode:        cubicle.ModeFull,
		Supervision: &policy,
		TraceEvents: 64,
		// The VFSCORE→RAMFS edge is only a few crossings per request, so
		// the rates here are much higher than the siege run's to get a
		// non-trivial schedule out of 12 requests.
		Chaos: &faultinject.Config{
			Seed:           21,
			Target:         ramfs.Name,
			ProtAtCrossing: 0.15,
			LeakAtCrossing: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	m.Tracer().StartDigest()
	if err := tgt.PutFile("/f.bin", make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	tgt.Sys.Chaos.Arm()
	for i := 0; i < 12; i++ {
		if res, err := tgt.Fetch("/f.bin"); err == nil && res.Status == 404 {
			_ = tgt.PutFile("/f.bin", make([]byte, 4<<10))
		}
	}
	if m.Stats.InjectedFaults == 0 || m.Stats.ContainedFaults == 0 {
		t.Errorf("deterministic run injected %d faults and contained %d", m.Stats.InjectedFaults, m.Stats.ContainedFaults)
	}
	const want = uint64(0x77a5ee914898400d)
	if got := cubicletest.StreamDigest(m); got != want {
		t.Errorf("stream digest %#x, want %#x", got, want)
	}
}
