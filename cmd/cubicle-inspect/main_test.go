package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cubicleos"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

// TestReportCountersFollowTheTable boots the deployment main boots, and
// requires the report's counters to be the monitor's Stats row by row of
// cubicle.Counters, in the JSON form and in the text form alike.
func TestReportCountersFollowTheTable(t *testing.T) {
	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode: cubicleos.ModeFull, TraceEvents: 1 << 14,
		MetricsInterval: 500_000, CheckpointInterval: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/probe.bin", make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.Fetch("/probe.bin"); err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	r := buildReport(m)

	if len(r.Counters) != len(cubicle.Counters) {
		t.Errorf("report has %d counters, the table %d rows", len(r.Counters), len(cubicle.Counters))
	}
	for _, c := range cubicle.Counters {
		if got, ok := r.Counters[c.Name]; !ok || got != *c.Field(&m.Stats) {
			t.Errorf("counter %s = %d (present=%v), Stats holds %d", c.Name, got, ok, *c.Field(&m.Stats))
		}
	}
	if r.Counters["calls"] == 0 || r.Counters["checkpoints"] == 0 {
		t.Errorf("workload left calls=%d checkpoints=%d", r.Counters["calls"], r.Counters["checkpoints"])
	}

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	writeText(&text, r)
	lines := map[string]uint64{} // first word of a line → the number after it
	for _, line := range strings.Split(text.String(), "\n") {
		var name string
		var v uint64
		if n, _ := fmt.Sscan(line, &name, &v); n == 2 {
			lines[name] = v
		}
	}
	for name, v := range dump.Counters {
		if got, ok := lines[name]; !ok || got != v {
			t.Errorf("text view shows %s = %d (present=%v), JSON carries %d", name, got, ok, v)
		}
	}
}
