package siege_test

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/httpd"
	"cubicleos/internal/siege"
	"cubicleos/internal/ualloc"
)

// supervisionOnly returns a restart policy with the watchdog disabled —
// overload runs exercise deadlines and quotas, not runaway crossings.
func supervisionOnly() *cubicle.RestartPolicy {
	p := cubicle.DefaultRestartPolicy()
	p.CrossingBudget = 0
	return &p
}

func bootOverloadTarget(t *testing.T, o siege.Options) *siege.Target {
	t.Helper()
	tgt, err := siege.NewTargetOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestOpenLoopGracefulDegradation is the overload acceptance test: an
// open-loop sweep across the saturation knee, governed vs ungoverned.
// Below the knee the two configurations are indistinguishable. Past it,
// the governed server sheds load explicitly (429 + Retry-After), keeps
// its connection count and tail latency bounded and its memory footprint
// a fraction of the ungoverned one — which silently queues everything,
// growing both without bound.
func TestOpenLoopGracefulDegradation(t *testing.T) {
	ungoverned := func() siege.Options { return siege.Options{Mode: cubicle.ModeFull} }
	governed := func() siege.Options {
		return siege.Options{
			Mode:        cubicle.ModeFull,
			TraceEvents: 1 << 14, TraceSamplePeriod: 50_000,
		}.Governed()
	}
	run := func(o siege.Options, rate float64) (*siege.Target, *siege.OpenLoopStats) {
		tgt := bootOverloadTarget(t, o)
		st, err := tgt.OpenLoop(siege.OpenLoopOptions{Path: "/index.html", Rate: rate, Requests: 120})
		if err != nil {
			t.Fatal(err)
		}
		return tgt, st
	}

	// Below the saturation knee the governor must be invisible: same
	// completions, no sheds, equivalent goodput.
	_, uLow := run(ungoverned(), 1000)
	_, gLow := run(governed(), 1000)
	for name, st := range map[string]*siege.OpenLoopStats{"ungoverned": uLow, "governed": gLow} {
		if st.OK != 120 || st.Shed != 0 || st.Dropped != 0 {
			t.Fatalf("%s below knee: ok=%d shed=%d dropped=%d, want 120/0/0", name, st.OK, st.Shed, st.Dropped)
		}
	}
	if diff := gLow.GoodputRPS - uLow.GoodputRPS; diff > 0.1*uLow.GoodputRPS || diff < -0.1*uLow.GoodputRPS {
		t.Errorf("governor costs goodput below the knee: governed %.1f vs ungoverned %.1f rps",
			gLow.GoodputRPS, uLow.GoodputRPS)
	}

	// Past the knee (capacity is ~4000 rps): the ungoverned server
	// accepts everything and queues.
	_, uHi := run(ungoverned(), 8000)
	if uHi.Shed != 0 {
		t.Errorf("ungoverned server shed %d — it has no shedding to do that with", uHi.Shed)
	}
	if uHi.MaxConns <= 16 {
		t.Errorf("ungoverned MaxConns = %d under overload, expected an unbounded pile-up > 16", uHi.MaxConns)
	}

	// The governed server refuses what it cannot serve and stays bounded.
	gt, gHi := run(governed(), 8000)
	if gHi.Shed == 0 {
		t.Fatal("governed server shed nothing past the saturation knee")
	}
	if gHi.OK == 0 {
		t.Fatal("governed server completed nothing past the knee; shedding everything is an outage")
	}
	if gHi.Dropped != 0 {
		t.Errorf("governed run dropped %d connections; refusals must be explicit responses", gHi.Dropped)
	}
	if gHi.MaxConns > 16 {
		t.Errorf("admission control leaked: MaxConns = %d, limit 16", gHi.MaxConns)
	}
	if gHi.P99 >= uHi.P99 {
		t.Errorf("governed p99 %v not below ungoverned p99 %v", gHi.P99, uHi.P99)
	}
	if gHi.ArenaBytes >= uHi.ArenaBytes {
		t.Errorf("governed arena %d B not below ungoverned %d B", gHi.ArenaBytes, uHi.ArenaBytes)
	}
	if gHi.GoodputRPS < 1500 {
		t.Errorf("governed goodput collapsed to %.1f rps under overload", gHi.GoodputRPS)
	}

	// Every shed is accounted end to end: client-observed refusals match
	// the server's 429 counter and the monitor's stats.
	m := gt.Sys.M
	if gt.Srv.Shed429 == 0 || uint64(gHi.Shed) != gt.Srv.Shed429+gt.Srv.Shed503 {
		t.Errorf("shed accounting: client saw %d, server counted 429=%d 503=%d",
			gHi.Shed, gt.Srv.Shed429, gt.Srv.Shed503)
	}
	if m.Stats.Sheds != gt.Srv.Shed429+gt.Srv.Shed503 {
		t.Errorf("Stats.Sheds = %d, server counted %d", m.Stats.Sheds, gt.Srv.Shed429+gt.Srv.Shed503)
	}
	prof := m.Tracer().Profile()
	if cover := float64(prof.TotalCycles) / float64(m.Clock.Cycles()); cover < 0.99 || cover > 1.01 {
		t.Errorf("profile covers %.4f of the virtual clock under shedding", cover)
	}
}

// TestOpenLoopDeadlineSheds: with a per-request deadline armed at accept
// time, connections the overloaded server cannot finish in budget are
// abandoned at their next crossing — rolled back, answered with 503, and
// never quarantine the cubicle that happened to be downstream.
func TestOpenLoopDeadlineSheds(t *testing.T) {
	tgt := bootOverloadTarget(t, siege.Options{
		Mode:        cubicle.ModeFull,
		TraceEvents: 1 << 14, TraceSamplePeriod: 50_000,
		Supervision: supervisionOnly(),
		Governance: &httpd.Governance{
			MaxConns: 64, RequestDeadline: 3_000_000, RetryAfter: 1,
			Retry: cubicle.DefaultRetryPolicy(),
		},
		WireCap:    256,
		ReapClosed: true,
	})
	st, err := tgt.OpenLoop(siege.OpenLoopOptions{Path: "/index.html", Rate: 9000, Requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	if m.Stats.DeadlineFaults == 0 {
		t.Fatal("no deadline ever fired at 9000 rps against a ~3000 rps deadline budget")
	}
	if tgt.Srv.Shed503 != m.Stats.DeadlineFaults {
		t.Errorf("Shed503 = %d, DeadlineFaults = %d — every miss must become exactly one 503",
			tgt.Srv.Shed503, m.Stats.DeadlineFaults)
	}
	if st.Shed == 0 || st.Dropped != 0 {
		t.Errorf("client saw shed=%d dropped=%d, want explicit refusals and no drops", st.Shed, st.Dropped)
	}
	if st.OK == 0 {
		t.Error("deadline shedding starved every request; fresh arrivals should still finish in budget")
	}
	if m.Stats.Quarantines != 0 {
		t.Errorf("deadline misses quarantined %d cubicles; they are transient by design", m.Stats.Quarantines)
	}
	for name, c := range tgt.Sys.Cubs {
		if c.Health() != cubicle.Healthy {
			t.Errorf("cubicle %s is %v after deadline shedding, want Healthy", name, c.Health())
		}
	}
}

// TestOpenLoopQuotaContainsWithoutQuarantine: a page quota on ALLOC turns
// unbounded memory growth under overload into typed, contained
// QuotaFaults. The monitor stops granting pages at the cap, the server
// refuses what it cannot buffer — and ALLOC is never quarantined, so the
// system serves again the moment pressure clears.
func TestOpenLoopQuotaContainsWithoutQuarantine(t *testing.T) {
	const quota = 48 << 20
	tgt := bootOverloadTarget(t, siege.Options{
		Mode:        cubicle.ModeFull,
		Supervision: supervisionOnly(),
		Governance: &httpd.Governance{
			RetryAfter: 1, Retry: cubicle.DefaultRetryPolicy(),
		},
		MemQuotas:  map[string]uint64{ualloc.Name: quota},
		ReapClosed: true,
	})
	st, err := tgt.OpenLoop(siege.OpenLoopOptions{Path: "/index.html", Rate: 6000, Requests: 160})
	if err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	alloc := tgt.Sys.Cubs[ualloc.Name]
	if m.Stats.QuotaFaults == 0 {
		t.Fatal("overload never hit the 48 MiB ALLOC quota")
	}
	if m.Stats.Quarantines != 0 || alloc.Health() != cubicle.Healthy {
		t.Fatalf("quota pressure quarantined ALLOC (health %v, %d quarantines); quota faults are transient",
			alloc.Health(), m.Stats.Quarantines)
	}
	if used := m.MemUsed(alloc.ID); used > quota {
		t.Errorf("ALLOC page footprint %d B exceeds its %d B quota", used, quota)
	}
	if st.OK == 0 {
		t.Error("no request completed before the quota bit; the cap should throttle, not kill")
	}
	// Recovery: once the storm passes, reaped connections free arena space
	// and the very same deployment serves again without any operator action.
	res, err := tgt.Fetch("/index.html")
	if err != nil {
		t.Fatalf("post-storm fetch failed: %v", err)
	}
	if res.Status != 200 || len(res.Body) != 4096 {
		t.Errorf("post-storm fetch: status %d, %d bytes, want 200/4096", res.Status, len(res.Body))
	}
}
