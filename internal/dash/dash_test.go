package dash_test

import (
	"bytes"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/dash"
	"cubicleos/internal/siege"
)

func bootDashTarget(t *testing.T) *siege.Target {
	t.Helper()
	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode:        cubicle.ModeFull,
		TraceEvents: 1 << 14, TraceSamplePeriod: 50_000,
		MetricsInterval: 2_000_000,
	}.Governed())
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	return tgt
}

func liveOut(t *testing.T) (string, *siege.OpenLoopStats) {
	t.Helper()
	var buf bytes.Buffer
	st, err := dash.Live(bootDashTarget(t),
		siege.OpenLoopOptions{Path: "/index.html", Rate: 6000, Requests: 200},
		&buf, dash.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), st
}

// TestLiveRendersRunState checks the dashboard shows every section of a
// governed overload run: header rates, the health ladder, per-cubicle
// crossing rates, edge latency digests and the metrics sparkline.
func TestLiveRendersRunState(t *testing.T) {
	out, st := liveOut(t)
	if st.OK == 0 {
		t.Fatalf("live run completed nothing: %+v", st)
	}
	if !strings.Contains(out, "cubicle-top — virtual") {
		t.Error("output missing the frame header")
	}
	if strings.Count(out, "cubicle-top — virtual") < 2 {
		t.Error("live run rendered fewer than two frames")
	}
	for _, want := range []string{
		"NGINX=healthy", "LWIP=healthy", // health ladder
		"NGINX→LWIP", // edge table
		"call rate ", // sparkline
		"sheds",      // governance rates in the header
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	hasSpark := false
	for _, r := range "▁▂▃▄▅▆▇█" {
		if strings.ContainsRune(out, r) {
			hasSpark = true
		}
	}
	if !hasSpark {
		t.Error("sparkline rendered no block characters")
	}
}

// TestLiveIsDeterministic pins the dashboard to virtual time: two
// identical runs on fresh targets render byte-identical output, because
// every frame fires on a virtual-cycle threshold, never on wall time.
func TestLiveIsDeterministic(t *testing.T) {
	a, _ := liveOut(t)
	b, _ := liveOut(t)
	if a != b {
		t.Error("two identical live runs rendered different output")
	}
}
