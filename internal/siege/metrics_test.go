package siege_test

import (
	"reflect"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/siege"
)

func bootMetricsTarget(t *testing.T) *siege.Target {
	t.Helper()
	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode:        cubicle.ModeFull,
		TraceEvents: 1 << 14, TraceSamplePeriod: 50_000,
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

// TestMetricsEndpointServesOpenMetrics is the dogfooding acceptance test:
// the monitor's exposition travels through the system's own isolation
// boundaries — staged into the server cubicle, copied across windows,
// framed by LWIP — and still parses as OpenMetrics on the wire.
func TestMetricsEndpointServesOpenMetrics(t *testing.T) {
	tgt := bootMetricsTarget(t)
	for i := 0; i < 5; i++ {
		res, err := tgt.Fetch("/index.html")
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != 200 {
			t.Fatalf("request %d: status %d", i, res.Status)
		}
	}
	before := tgt.Sys.M.Stats

	res, err := tgt.Fetch("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 {
		t.Fatalf("GET /metrics: status %d", res.Status)
	}
	series, err := cubicletest.ParseOpenMetrics(strings.NewReader(string(res.Body)))
	if err != nil {
		t.Fatalf("/metrics body does not parse as OpenMetrics: %v\n%s", err, res.Body)
	}
	// Every row of the counter table is one series. The body was rendered
	// while serving, so a counter sits between its pre-request total and
	// the current one — equal to both for the counters this request does
	// not move, denied_faults among them.
	for _, c := range cubicle.Counters {
		name := "cubicleos_" + c.Name + "_total"
		v, ok := series[name]
		lo, hi := *c.Field(&before), *c.Field(&tgt.Sys.M.Stats)
		if !ok || v < float64(lo) || v > float64(hi) {
			t.Errorf("%s = %v (present=%v), want within [%d, %d]", name, v, ok, lo, hi)
		}
	}
	if before.CallsTotal == tgt.Sys.M.Stats.CallsTotal || before.DeniedFaults != tgt.Sys.M.Stats.DeniedFaults {
		t.Error("serving /metrics should move calls and leave denied_faults alone")
	}
	for _, want := range []string{
		// The series the endpoint had before the table.
		"cubicleos_calls_total", "cubicleos_shared_calls_total", "cubicleos_faults_total",
		"cubicleos_retags_total", "cubicleos_wrpkrus_total", "cubicleos_sheds_total",
		"cubicleos_retries_total", "cubicleos_contained_faults_total",
		"cubicleos_restarts_total", "cubicleos_tlb_shootdowns_total",
		"cubicleos_virtual_seconds",
		"cubicleos_metrics_samples_total", "cubicleos_healthy_cubicles",
		"cubicleos_trace_events_recorded_total", "cubicleos_trace_events_dropped_total",
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("/metrics missing series %s", want)
		}
	}
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
// monolithic loop: the same run stepped quantum-by-quantum (as cubicle-top
// drives it) must land on identical virtual-time statistics.
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
