package cubicle_test

import (
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/cycles"
)

// The exposition round-trips through cubicletest.ParseOpenMetrics, which
// tests of this package can only import from an external test package.

func TestOpenMetricsRoundTrip(t *testing.T) {
	noop := func(*cubicle.Env, []uint64) []uint64 { return nil }
	b := cubicle.NewBuilder()
	for _, name := range []string{"FOO", "BAR"} {
		b.MustAdd(&cubicle.Component{Name: name, Kind: cubicle.KindIsolated,
			Exports: []cubicle.ExportDecl{{Name: strings.ToLower(name), Fn: noop}}})
	}
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := cubicle.NewMonitor(cubicle.ModeFull, cycles.DefaultCosts())
	m.EnableTracing(1 << 12)
	m.EnableMetrics(50_000, 64)
	cubs, err := cubicle.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := m.MustResolve(cubs["FOO"].ID, "BAR", "bar")
	if err := m.RunAs(m.NewEnv(m.NewThread()), cubs["FOO"].ID, func(e *cubicle.Env) {
		for i := 0; i < 200; i++ {
			h.Call(e)
		}
	}); err != nil {
		t.Fatal(err)
	}

	body := m.OpenMetricsBody()
	series, err := cubicletest.ParseOpenMetrics(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, c := range cubicle.Counters {
		name := "cubicleos_" + c.Name + "_total"
		if got, ok := series[name]; !ok || got != float64(*c.Field(&m.Stats)) {
			t.Errorf("%s = %v (present=%v), want %d", name, got, ok, *c.Field(&m.Stats))
		}
	}
	for _, want := range []string{
		"cubicleos_faults_total", "cubicleos_retags_total", "cubicleos_wrpkrus_total",
		"cubicleos_virtual_seconds", "cubicleos_metrics_samples_total",
		"cubicleos_call_rate", "cubicleos_healthy_cubicles",
		"cubicleos_call_p50_cycles",
		`cubicleos_trace_events_recorded_total`,
		`cubicleos_trace_events_dropped_total`,
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("exposition missing series %s", want)
		}
	}
	if series["cubicleos_call_p50_cycles"] <= 0 {
		t.Error("tracing is on but call_p50_cycles is zero")
	}
}

func TestParseOpenMetricsRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing EOF":      "cubicleos_calls_total 1\n",
		"content after":    "# EOF\ncubicleos_calls_total 1\n",
		"bad comment":      "# NOPE cubicleos_calls\n# EOF\n",
		"duplicate":        "a_total 1\na_total 2\n# EOF\n",
		"unparsable value": "a_total xyz\n# EOF\n",
	}
	for name, in := range cases {
		if _, err := cubicletest.ParseOpenMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
}
