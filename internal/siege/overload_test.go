package siege_test

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

// supervisionOnly returns a restart policy with the watchdog disabled —
// overload runs exercise admission control, not runaway crossings.
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
			TraceEvents: 1 << 14,
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
	// The run is deterministic, so its split is pinned too: OpenLoop
	// samples the connection count between steps and reads 12 under the
	// limit of 16, so only the split sees the limit move (at 17: 64
	// completed, 56 shed, 13 connections).
	if gHi.OK != 61 || gHi.Shed != 59 || gHi.MaxConns != 12 {
		t.Errorf("governed run at 8000 rps: ok=%d shed=%d maxconns=%d, want 61/59/12", gHi.OK, gHi.Shed, gHi.MaxConns)
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
	if gt.Srv.Shed429 == 0 || uint64(gHi.Shed) != gt.Srv.Shed429 {
		t.Errorf("shed accounting: client saw %d, server counted %d", gHi.Shed, gt.Srv.Shed429)
	}
	if m.Stats.Sheds != gt.Srv.Shed429 {
		t.Errorf("Stats.Sheds = %d, server counted %d", m.Stats.Sheds, gt.Srv.Shed429)
	}
	prof := m.Tracer().Profile()
	if cover := float64(prof.TotalCycles) / float64(m.Clock.Cycles()); cover < 0.99 || cover > 1.01 {
		t.Errorf("profile covers %.4f of the virtual clock under shedding", cover)
	}
}
