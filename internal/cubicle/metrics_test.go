package cubicle

import "testing"

// metricsWorkload drives enough FOO→BAR crossings to advance the virtual
// clock well past n sampling intervals.
func metricsWorkload(t *testing.T, ts *testSystem, calls int) {
	t.Helper()
	h := ts.m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")
	buf := ts.heapIn(t, "BAR", 64)
	ts.enter(t, "FOO", func(e *Env) {
		for i := 0; i < calls; i++ {
			h.Call(e, uint64(buf), 0)
		}
	})
}

func TestMetricsSamplesStrictlyOrdered(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.m.EnableMetrics(50_000, 1<<10)
	metricsWorkload(t, ts, 400)

	samples := ts.m.MetricsSamples()
	if len(samples) == 0 {
		t.Fatal("no metrics samples taken")
	}
	if ts.m.MetricsDropped() != 0 {
		t.Fatalf("ring of 1024 dropped %d samples over %d", ts.m.MetricsDropped(), ts.m.MetricsRecorded())
	}
	var sumCalls uint64
	for i, s := range samples {
		if s.Seq != uint64(i) {
			t.Fatalf("sample %d has seq %d", i, s.Seq)
		}
		if i > 0 && s.Cycle <= samples[i-1].Cycle {
			t.Fatalf("sample %d cycle %d not after predecessor %d", i, s.Cycle, samples[i-1].Cycle)
		}
		if s.Interval == 0 {
			t.Fatalf("sample %d has zero interval", i)
		}
		if s.CallRate < 0 || s.FaultRate < 0 || s.ShedRate < 0 {
			t.Fatalf("sample %d has negative rate: %+v", i, s)
		}
		sumCalls += s.Calls
	}
	// Deltas partition the counter stream: with no drops their sum is the
	// total at the last snapshot, which the workload has since passed.
	if sumCalls == 0 || sumCalls > ts.m.Stats.CallsTotal {
		t.Fatalf("delta sum %d inconsistent with CallsTotal %d", sumCalls, ts.m.Stats.CallsTotal)
	}
	last := samples[len(samples)-1]
	if last.Seq != ts.m.MetricsRecorded()-1 {
		t.Fatalf("newest sample has seq %d, want %d", last.Seq, ts.m.MetricsRecorded()-1)
	}
	if last.Healthy == 0 {
		t.Fatal("health ladder shows no healthy cubicles")
	}
}

func TestMetricsRingWrapCountsDrops(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.m.EnableMetrics(20_000, 16)
	metricsWorkload(t, ts, 1200)

	rec, drop := ts.m.MetricsRecorded(), ts.m.MetricsDropped()
	if rec <= 16 {
		t.Fatalf("workload took only %d samples, cannot exercise wrap", rec)
	}
	if drop != rec-16 {
		t.Fatalf("dropped %d, want recorded-cap = %d", drop, rec-16)
	}
	samples := ts.m.MetricsSamples()
	if len(samples) != 16 {
		t.Fatalf("surviving samples %d, want 16", len(samples))
	}
	// Survivors are the newest window, still in order.
	if samples[0].Seq != drop {
		t.Fatalf("oldest survivor seq %d, want %d", samples[0].Seq, drop)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Seq != samples[i-1].Seq+1 {
			t.Fatalf("survivor seqs not contiguous at %d", i)
		}
	}
}

func TestMetricsDisabledIsInert(t *testing.T) {
	ts := bootPair(t, ModeFull)
	metricsWorkload(t, ts, 10)
	if ts.m.MetricsEnabled() || ts.m.MetricsRecorded() != 0 || ts.m.MetricsSamples() != nil {
		t.Fatal("metrics pipeline active without EnableMetrics")
	}
}
