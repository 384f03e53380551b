package cubicleos_test

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/experiments"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/httpd"
	"cubicleos/internal/siege"
	"cubicleos/internal/sqldb"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/ukernel"
)

// TestStreamDigestsPinned pins, cell by cell, everything virtual about a
// traced run: the event stream, the clock, every counter row and the
// per-edge call counts, plus the /metrics body and every metrics sample
// where the cell takes them.
//
// Each value was computed before the monitor's events and counters were
// recorded by one function, and must not move while that holds: a
// refactor of the recording path changes no digit here. Between them the
// cells reach every event kind the workloads produce — chaos, restarts and
// checkpoints in three isolation modes; sheds, deadlines and quotas;
// routes, drains and failovers; key evictions; IPC; the SQLite path's
// commits, journal writes and fsyncs.
func TestStreamDigestsPinned(t *testing.T) {
	cells := []struct {
		name string
		want []uint64
		run  func(t *testing.T) []uint64
	}{
		{"replay/full", []uint64{0xa0cc5122ab540d4f}, func(t *testing.T) []uint64 { return replayCell(t, cubicle.ModeFull) }},
		{"replay/no-acl", []uint64{0x14151311b98fdbdb}, func(t *testing.T) []uint64 { return replayCell(t, cubicle.ModeNoACL) }},
		{"replay/unikraft", []uint64{0x8e34b22839ad279b}, func(t *testing.T) []uint64 { return replayCell(t, cubicle.ModeUnikraft) }},
		{"prod-openloop", []uint64{0xcff1cf2ff861f046}, prodCell},
		{"cluster-kill", []uint64{0x2fe79ba24ee4d1c4, 0xa20b9c7a01714edf, 0x2b37841dc4a20e95, 0xafdfbbe56bc6fb31}, clusterCell},
		{"key-eviction", []uint64{0x82e7a2dc20b01a4e}, evictionCell},
		{"ukernel-ipc", []uint64{0x669749ba417f0d26}, ukernelCell},
		{"speedtest", []uint64{0x3b1865512d280d88}, speedtestCell},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); !slices.Equal(got, c.want) {
				t.Errorf("digests %#x, want %#x", got, c.want)
			}
		})
	}
}

// digest is cubicletest.StreamDigest over a run whose ring lost nothing,
// with the per-edge call counts and extra folded in.
func digest(t *testing.T, m *cubicle.Monitor, extra ...[]byte) uint64 {
	t.Helper()
	if d := m.Tracer().Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events; the digest would not cover the run", d)
	}
	edges := fmt.Appendf(nil, "%v", m.Stats.SortedEdges())
	return cubicletest.StreamDigest(m, append([][]byte{edges}, extra...)...)
}

// replayCell is siege's replay workload — chaos seed 7 into RAMFS under
// supervision, checkpoints every 300 000 cycles, 15 fetches — in mode.
// Unikraft mode has no crossing to inject at: its cell pins the rest.
func replayCell(t *testing.T, mode cubicle.Mode) []uint64 {
	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode:               mode,
		TraceEvents:        1 << 16,
		CheckpointInterval: 300_000,
	}.Chaotic(7))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 8<<10)
	for i := range body {
		body[i] = byte(i*31 + 7)
	}
	if err := tgt.PutFile("/f.bin", body); err != nil {
		t.Fatal(err)
	}
	tgt.Sys.Chaos.Arm()
	for i := 0; i < 15; i++ {
		if res, err := tgt.Fetch("/f.bin"); err == nil && res.Status == 404 {
			_ = tgt.PutFile("/f.bin", body)
		}
	}
	tgt.Sys.Chaos.Disarm()
	m := tgt.Sys.M
	if mode != cubicle.ModeUnikraft && m.Stats.Restarts == 0 {
		t.Fatalf("chaos run injected %d faults and restarted nothing", m.Stats.InjectedFaults)
	}
	return []uint64{digest(t, m)}
}

// prodCell is the production open-loop configuration — supervisor,
// governor, tracer, metrics and checkpoints on — offered more than it can
// serve, with a request deadline that expires and a page quota on ALLOC
// that refuses. A refused socket is never answered, so the run lasts until
// its client gives up: ≈ 335 000 events for 80 arrivals.
func prodCell(t *testing.T) []uint64 {
	restart := cubicle.DefaultRestartPolicy()
	restart.CrossingBudget = 0
	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode:        cubicle.ModeFull,
		Supervision: &restart,
		Governance: &httpd.Governance{MaxConns: 16, RequestDeadline: 2_000_000, RetryAfter: 1,
			Retry: cubicle.DefaultRetryPolicy()},
		MemQuotas:          map[string]uint64{ualloc.Name: 16 << 20},
		WireCap:            256,
		ReapClosed:         true,
		TraceEvents:        1 << 19,
		MetricsInterval:    2_200_000,
		MetricsRing:        256,
		CheckpointInterval: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/index.html", make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.OpenLoop(siege.OpenLoopOptions{Path: "/index.html", Rate: 8000, Requests: 80}); err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	if s := m.Stats; s.Sheds == 0 || s.DeadlineFaults == 0 || s.QuotaFaults == 0 {
		t.Fatalf("governor idle: %d sheds, %d deadline faults, %d quota faults", s.Sheds, s.DeadlineFaults, s.QuotaFaults)
	}
	return []uint64{digest(t, m, m.OpenMetricsBody(), fmt.Appendf(nil, "%v", m.MetricsSamples()))}
}

// clusterCell is the cluster chaos run: four keep-alive backends behind
// the balancer with wire drops, hedging, a slowed backend and backend 2
// killed mid-flood; one digest per backend.
func clusterCell(t *testing.T) []uint64 {
	c, err := cluster.New(cluster.Options{
		Backends:           4,
		Mode:               cubicle.ModeFull,
		Seed:               11,
		CheckpointInterval: 5_000_000,
		HedgeAfter:         20_000_000,
		RetryBudget:        0.25,
		TraceEvents:        1 << 18,
		Chaos:              &faultinject.Config{Seed: 11, DropAtWire: 0.015},
		Script: []cluster.Event{
			{AtCycle: 20_000_000, Backend: 2, Action: cluster.ActKill},
			{AtCycle: 30_000_000, Backend: 0, Action: cluster.ActSlow, Factor: 3, Window: 20_000_000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutFile("/index.html", []byte("cluster digest body\n")); err != nil {
		t.Fatal(err)
	}
	c.Arm()
	st, err := c.RunOpenLoop(cluster.RunOptions{Path: "/index.html", Rate: 5000, Requests: 120})
	if err != nil {
		t.Fatal(err)
	}
	if st.Drains == 0 || st.Failovers == 0 {
		t.Fatalf("cluster run drained %d times and failed over %d times", st.Drains, st.Failovers)
	}
	var out []uint64
	for _, b := range c.Backends {
		out = append(out, digest(t, b.T.Sys.M))
	}
	return out
}

// evictionCell boots the file-system stack with 16 more isolated
// cubicles, 21 for 14 keys, and calls round-robin into them so that tag
// virtualisation recycles keys.
func evictionCell(t *testing.T) []uint64 {
	var extra []*cubicle.Component
	for i := 0; i < 16; i++ {
		extra = append(extra, &cubicle.Component{Name: "K" + strconv.Itoa(i), Kind: cubicle.KindIsolated,
			Exports: []cubicle.ExportDecl{{Name: "touch", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				p := e.HeapAlloc(16)
				e.StoreByte(p, byte(a[0]))
				return e.Ret(uint64(e.LoadByte(p)))
			}}}})
	}
	sys, err := boot.NewFS(boot.Config{Mode: cubicle.ModeFull, TraceEvents: 1 << 16, Extra: extra})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RunAs("K0", func(e *cubicle.Env) {
		for round := 0; round < 3; round++ {
			for i := 1; i < 16; i++ {
				h := sys.M.MustResolve(sys.Cubs["K0"].ID, "K"+strconv.Itoa(i), "touch")
				if r := h.Call(e, uint64(round+i)); r[0] != uint64(round+i) {
					t.Errorf("K%d round %d returned %d", i, round, r[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.M.Stats.KeyEvictions == 0 {
		t.Fatal("21 isolated cubicles evicted no key")
	}
	return []uint64{digest(t, sys.M)}
}

// speedtestCell is the Figure 8 SQLite deployment in full isolation running
// speedtest1 at size 10 — set-up and every query — traced from its first
// statement, with every pager counter and the CRC-32 of the database image
// the run leaves folded in.
func speedtestCell(t *testing.T) []uint64 {
	tgt, err := experiments.NewSQLiteTarget(cubicle.ModeFull, nil, 10, experiments.UnikraftWorkScale)
	if err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	m.EnableTracing(1 << 16)
	if _, err := tgt.RunAll(); err != nil {
		t.Fatal(err)
	}
	p := tgt.DB.Pager()
	image := crc32.NewIEEE()
	if err := tgt.Sys.RunAs("SQLITE", func(*cubicle.Env) {
		for pg := uint32(1); pg <= p.NPages(); pg++ {
			image.Write(p.Get(pg))
		}
	}); err != nil {
		t.Fatal(err)
	}
	return []uint64{digest(t, m, fmt.Appendf(nil, "%+v %08x", p.Stats, image.Sum32()))}
}

// ukernelCell is a Figure 9b deployment — SQLite, CORE and a separate
// RAMFS on seL4 — traced from its first statement.
func ukernelCell(t *testing.T) []uint64 {
	d, err := ukernel.NewSQLite(ukernel.SeL4, 4, &cubicle.Component{Name: "SQLITE", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "sqlite_main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}}})
	if err != nil {
		t.Fatal(err)
	}
	d.Sys.M.EnableTracing(1 << 16)
	err = d.Sys.RunAs("SQLITE", func(e *cubicle.Env) {
		d.VFS.InitBuffers(e, e.CubicleOf("RAMFS"))
		db, err := sqldb.Open(e, d.VFS, "/uk.db", e.HeapAlloc(sqldb.PageSize), 32)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "BEGIN")
		for i := 0; i < 40; i++ {
			mustExec(t, db, "INSERT INTO t VALUES ("+strconv.Itoa(i)+", 'value')")
		}
		mustExec(t, db, "COMMIT")
		mustExec(t, db, "UPDATE t SET v = 'x' WHERE id < 10")
		mustExec(t, db, "SELECT count(*) FROM t")
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.Calls == 0 {
		t.Fatal("the deployment made no IPC call")
	}
	return []uint64{digest(t, d.Sys.M)}
}

// mustExec runs one statement and fails the test on an error.
func mustExec(t *testing.T, db *sqldb.DB, sql string) *sqldb.Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
