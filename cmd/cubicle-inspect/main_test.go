package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
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

// TestFleetTextFollowsJSON runs the -cluster scenario and requires the
// text table to show, row by row and column by column, what the JSON form
// carries for every backend, and the balancer section its totals.
func TestFleetTextFollowsJSON(t *testing.T) {
	r := runCluster(4)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	// Decoded generically, numbers as their JSON text, so the test reads
	// the keys the JSON form really has.
	var dump map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&dump); err != nil {
		t.Fatal(err)
	}
	fleet, _ := dump["fleet"].([]any)
	if len(fleet) != 4 {
		t.Fatalf("JSON fleet has %d backends, want 4", len(fleet))
	}
	var text bytes.Buffer
	writeClusterText(&text, r)
	lines := strings.Split(text.String(), "\n")

	// The table's columns, by header, and the JSON key each one shows.
	key := map[string]string{"idx": "index", "health": "health", "routed": "routed", "ok": "ok",
		"shed": "shed", "err": "errors", "drop": "dropped", "drains": "drains", "readmits": "readmits",
		"warm": "warm_restarts", "cold": "cold_restarts", "quar": "quarantines",
		"pages": "pages", "frames": "resident_frames"}
	head := strings.Fields(lines[1])
	if len(head) != len(key) {
		t.Fatalf("table header %q, want the %d columns %v", lines[1], len(key), key)
	}
	for i, b := range fleet {
		row := strings.Fields(lines[2+i])
		if len(row) != len(head) {
			t.Fatalf("backend %d: row %q has %d fields, header %d", i, lines[2+i], len(row), len(head))
		}
		for c, h := range head {
			k, ok := key[h]
			if !ok {
				t.Fatalf("column %q shows no JSON key", h)
			}
			if want := fmt.Sprint(b.(map[string]any)[k]); row[c] != want {
				t.Errorf("backend %d: text shows %s = %s, JSON carries %s = %s", i, h, row[c], k, want)
			}
		}
	}
	if lines[2+len(fleet)] != "" {
		t.Errorf("text table has more rows than the JSON fleet: %q", lines[2+len(fleet)])
	}

	// The balancer section, line by line: the numbers each line shows and
	// the JSON keys they are.
	bal := [][]string{{"retries"}, {"hedges", "hedge_wins"}, {"failovers"}, {"drains", "readmits"}, {"route_faults"}}
	at := slices.Index(lines, "BALANCER")
	if at < 0 || len(lines) < at+1+len(bal) {
		t.Fatalf("no balancer section of %d lines in\n%s", len(bal), text.String())
	}
	for j, keys := range bal {
		var nums []string
		for _, f := range strings.Fields(lines[at+1+j]) {
			if f = strings.Trim(f, "()"); f != "" && strings.Trim(f, "0123456789") == "" {
				nums = append(nums, f)
			}
		}
		var want []string
		for _, k := range keys {
			want = append(want, fmt.Sprint(dump[k]))
		}
		if !slices.Equal(nums, want) {
			t.Errorf("balancer line %q shows %v, JSON carries %v = %v", lines[at+1+j], nums, keys, want)
		}
	}
	if fmt.Sprint(dump["drains"]) == "0" {
		t.Error("the scripted kill drained no backend")
	}
}

// TestCheckFlags: a negative -ring or -cluster is a usage error. -ring -1
// used to turn tracing off and -cluster -2 to print the single-system
// dump, both with exit status 0.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		ring, cluster int
		ok            bool
	}{
		{1 << 14, 0, true}, {0, 0, true}, {1 << 14, 2, true},
		{-1, 0, false},
		{1 << 14, -2, false},
	} {
		if err := checkFlags(c.ring, c.cluster); (err == nil) != c.ok {
			t.Errorf("checkFlags(%d, %d) = %v, want ok=%v", c.ring, c.cluster, err, c.ok)
		}
	}
}
