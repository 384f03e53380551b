package cluster

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/httpd"
)

// TestClusterCrossingsPerArrival runs the benchmark's fleet — four
// backends at 6 000 rps, one 4 KiB file, checkpoints every 5 M cycles,
// closed connections reaped, backend 2 killed at 25 M — for 500 arrivals
// and bounds the fleet's crossings per arrival at twice those of one
// closed-loop fetch of the same file. A backend stepped while it waits
// for input crosses into NGINX for nothing: polling each backend until
// its clock caught up with the cluster's cost some 650 crossings an
// arrival against a fetch's 52.
func TestClusterCrossingsPerArrival(t *testing.T) {
	const path, arrivals = "/f.bin", 500
	c, err := New(Options{
		Backends:           4,
		Mode:               cubicle.ModeFull,
		CheckpointInterval: 5_000_000,
		ReapClosed:         true,
		Script:             []Event{{AtCycle: 25_000_000, Backend: 2, Action: ActKill}},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4<<10)
	for i := range body {
		body[i] = byte(i*31 + 7)
	}
	if err := c.PutFile(path, body); err != nil {
		t.Fatal(err)
	}
	crossings := func() (n uint64) {
		for _, b := range c.Backends {
			n += b.T.Sys.M.Stats.CallsTotal
		}
		return n
	}
	var fetch uint64
	for _, b := range c.Backends {
		before := b.T.Sys.M.Stats.CallsTotal
		if res, err := b.T.Fetch(path); err != nil || res.Status != 200 {
			t.Fatalf("backend %d: fetch %+v, %v", b.Index, res, err)
		}
		if b.Index == 0 {
			fetch = b.T.Sys.M.Stats.CallsTotal - before
		}
	}
	start := crossings()
	st, err := c.RunOpenLoop(RunOptions{Path: path, Rate: 6000, Requests: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, st)
	if st.OK != arrivals || st.Sys.WarmRestarts < 1 || st.Readmits < 1 {
		t.Fatalf("the run is not the benchmark's failover: %d ok, %d warm restarts, %d readmits",
			st.OK, st.Sys.WarmRestarts, st.Readmits)
	}
	per := float64(crossings()-start) / arrivals
	t.Logf("%.1f crossings per arrival, %d per fetch", per, fetch)
	if per > 2*float64(fetch) {
		t.Errorf("the fleet crosses %.1f times per arrival, more than twice a fetch's %d", per, fetch)
	}
}

// TestIdleBackendStepsOncePerQuantum: a backend whose only connections
// are idle keep-alive ones has nothing to do between the driver's inputs,
// so each quantum steps it once — one MONITOR → NGINX crossing — and then
// moves its clock to the cluster's.
func TestIdleBackendStepsOncePerQuantum(t *testing.T) {
	c := bootCluster(t, Options{Backends: 2, Mode: cubicle.ModeFull})
	if st, err := c.RunOpenLoop(RunOptions{Path: "/index.html", Rate: 3000, Requests: 40}); err != nil || st.OK != 40 {
		t.Fatalf("warm-up run: %+v, %v", st, err)
	}
	idle := c.Backends[1]
	if len(idle.pool) == 0 || idle.T.Srv.Conns() == 0 {
		t.Fatalf("backend 1 holds %d pooled and %d server connections, want some of each",
			len(idle.pool), idle.T.Srv.Conns())
	}
	step := cubicle.Edge{From: cubicle.MonitorID, To: idle.T.Sys.Cubs[httpd.Name].ID}
	routed, steps, from := idle.Routed, idle.T.Sys.M.Stats.Calls[step], c.now
	// One arrival 100 quanta out: least-loaded routing sends it to
	// backend 0, and backend 1 idles through the whole run.
	if st, err := c.RunOpenLoop(RunOptions{Path: "/index.html", Rate: cycles.FrequencyHz / (100 * Quantum), Requests: 1}); err != nil || st.OK != 1 {
		t.Fatalf("idle run: %+v, %v", st, err)
	}
	if idle.Routed != routed {
		t.Fatalf("backend 1 was routed %d requests during its idle run", idle.Routed-routed)
	}
	quanta := (c.now - from) / Quantum
	if got := idle.T.Sys.M.Stats.Calls[step] - steps; got != quanta {
		t.Errorf("an idle backend took %d steps over %d quanta, want one a quantum", got, quanta)
	}
}
