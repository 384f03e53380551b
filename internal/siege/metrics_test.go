package siege_test

import (
	"reflect"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

func bootMetricsTarget(t *testing.T) *siege.Target {
	t.Helper()
	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode:            cubicle.ModeFull,
		TraceEvents:     1 << 14,
		MetricsInterval: 2_000_000, MetricsRing: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/index.html", make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestMetricsSamplesDuringSiege checks the virtual-time pipeline fills its
// ring from real workload crossings with sane figures.
func TestMetricsSamplesDuringSiege(t *testing.T) {
	tgt := bootMetricsTarget(t)
	for i := 0; i < 8; i++ {
		if _, err := tgt.Fetch("/index.html"); err != nil {
			t.Fatal(err)
		}
	}
	m := tgt.Sys.M
	samples := m.MetricsSamples()
	if len(samples) < 2 {
		t.Fatalf("only %d samples after 8 requests at 2M-cycle interval", len(samples))
	}
	var sawCalls, sawP99 bool
	for i, s := range samples {
		if i > 0 && s.Cycle <= samples[i-1].Cycle {
			t.Fatalf("sample %d cycle not increasing", i)
		}
		if s.Calls > 0 && s.CallRate > 0 {
			sawCalls = true
		}
		if s.CallP99 >= s.CallP50 && s.CallP99 > 0 {
			sawP99 = true
		}
	}
	if !sawCalls {
		t.Error("no sample recorded a positive call rate")
	}
	if !sawP99 {
		t.Error("no sample carried crossing-latency percentiles despite tracing")
	}
}

// TestOpenLoopDriverMatchesOpenLoop pins the stepping driver to the
// monolithic loop: the same run stepped quantum by quantum must land on
// identical virtual-time statistics.
func TestOpenLoopDriverMatchesOpenLoop(t *testing.T) {
	opts := siege.OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 60}
	boot := func() *siege.Target {
		tgt, err := siege.NewTarget(cubicle.ModeFull)
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		return tgt
	}

	ref, err := boot().OpenLoop(opts)
	if err != nil {
		t.Fatal(err)
	}

	d, err := boot().StartOpenLoop(opts)
	if err != nil {
		t.Fatal(err)
	}
	for d.Step(37) { // odd quantum to exercise mid-run boundaries
	}
	got := d.Finish()
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("stepped run diverges from monolithic run\n ref: %+v\n got: %+v", ref, got)
	}
	if again := d.Finish(); !reflect.DeepEqual(got, again) {
		t.Error("Finish is not idempotent")
	}
	if d.Step(1) {
		t.Error("Step reports progress after Finish")
	}
	if got.Arrivals != opts.Requests || got.Dropped != 0 {
		t.Errorf("arrivals=%d dropped=%d after completion", got.Arrivals, got.Dropped)
	}
}
