package siege

import (
	"testing"

	"cubicleos/internal/cubicle"
)

// TestTracedRunProfileCoversClock runs a full siege workload with the
// observability layer on and asserts that the per-cubicle cycle profile
// accounts for the whole virtual clock.
func TestTracedRunProfileCoversClock(t *testing.T) {
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, TraceEvents: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f.bin", make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := tgt.Fetch("/f.bin")
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 200 {
			t.Fatalf("request %d: status %d", i, res.Status)
		}
	}

	m := tgt.Sys.M
	trc := m.Tracer()
	if trc == nil {
		t.Fatal("traced target has no tracer")
	}
	if m.Stats.CallsTotal == 0 || m.Stats.Faults == 0 {
		t.Fatalf("workload did not exercise the isolation machinery: %+v", m.Stats)
	}

	// Tracing starts at cycle 0, so the profile must cover the clock to
	// within 1% (the acceptance bound; exact span attribution makes it
	// exact in practice).
	prof := trc.Profile()
	clock := m.Clock.Cycles()
	if clock == 0 {
		t.Fatal("virtual clock did not advance")
	}
	cover := float64(prof.TotalCycles) / float64(clock)
	if cover < 0.99 || cover > 1.01 {
		t.Errorf("profile covers %.4f of the virtual clock, want within 1%%", cover)
	}

	if trc.Recorded() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestUntracedTargetHasNoTracer pins the default: tracing is strictly
// opt-in, so plain targets (the benchmark configuration) carry no tracer.
func TestUntracedTargetHasNoTracer(t *testing.T) {
	tgt, err := NewTarget(cubicle.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Sys.M.Tracer() != nil {
		t.Fatal("untraced target unexpectedly has a tracer attached")
	}
}
