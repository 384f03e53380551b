package main

import (
	"fmt"
	"math/rand"
	"time"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/experiments"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
)

// The SQLite workload: a fresh Figure 8 deployment per pass, speedtest1
// at this size, every query. It uses the cubicle layer differently from
// the HTTP workloads — no network, about one trap, one retag and one
// window open/close per file-system call — and is the control on which
// every network-side change must read "no change".
const (
	sqliteSize = 100
	// sqliteLookups seeded point look-ups on the big table open every
	// pass: their rows are verified, and they are how the seed reaches
	// this workload (speedtest1's own generator is not reseeded).
	sqliteLookups = 8
	sqliteMinPass = 3
)

func sqliteRows(r *run) int { return r.n(sqliteSize) * 40 } // speedtest: big = Size*40

// sqliteBoot boots a target and fills the schema; the two durations are
// the boot and the Setup() share of the set-up time. It then spot-checks
// the big table's row count, untimed, so that every pass of every leg
// starts from the same page-cache state.
func sqliteBoot(r *run, mode cubicle.Mode) (*experiments.SQLiteTarget, time.Duration, time.Duration, error) {
	t0 := time.Now()
	t, err := experiments.NewSQLiteTarget(mode, nil, r.n(sqliteSize), experiments.UnikraftWorkScale)
	if err != nil {
		return nil, 0, 0, err
	}
	boot := time.Since(t0)
	if err := t.Setup(); err != nil {
		return nil, 0, 0, err
	}
	fill := time.Since(t0) - boot
	r.attempted++
	res, err := sqliteQuery(t, "SELECT count(*) FROM zbig")
	if want := sqliteRows(r); err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != int64(want) {
		r.failed++
		r.problemf("count(*) of zbig: want %d, got %v (err %v)", want, res, err)
	}
	return t, boot, fill, nil
}

// sqliteQuery runs one statement inside the SQLITE cubicle.
func sqliteQuery(t *experiments.SQLiteTarget, sql string) (res *sqldb.Result, err error) {
	if rerr := t.Sys.RunAs("SQLITE", func(*cubicle.Env) { res, err = t.DB.Exec(sql) }); rerr != nil {
		return nil, rerr
	}
	return res, err
}

// sqlitePass is one operation: the seeded look-ups, then every
// speedtest query in ID order. It returns the virtual cycles of the pass
// and of each query, and the host time of each segment of the pass (the
// look-ups, then one per query).
func sqlitePass(r *run, t *experiments.SQLiteTarget, lookups *rand.Rand, req int) (total uint64, perQuery map[int]uint64, hostNs []float64) {
	clock := t.Sys.M.Clock
	c0 := clock.Cycles()
	rows := sqliteRows(r)
	t0 := time.Now()
	for i := 0; i < sqliteLookups; i++ {
		id := 1 + lookups.Intn(rows)
		r.attempted++
		res, err := sqliteQuery(t, fmt.Sprintf("SELECT k FROM zbig WHERE id = %d", id))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != int64(id%997) {
			r.failed++
			r.problemf("look-up of zbig row %d: got %v (err %v)", id, res, err)
		}
	}
	hostNs = append(hostNs, float64(time.Since(t0)))
	perQuery = map[int]uint64{}
	for _, id := range speedtest.QueryIDs {
		r.attempted++
		s := r.spans.begin("sqldb.query", req, -1)
		cyc, err := t.RunQuery(id)
		r.spans.end(s)
		if err != nil {
			r.failed++
			r.problemf("speedtest query %d: %v", id, err)
		}
		perQuery[id] = cyc
		hostNs = append(hostNs, float64(r.spans.spans[s].End-r.spans.spans[s].Start))
	}
	return clock.Cycles() - c0, perQuery, hostNs
}

func sum(v []float64) (total float64) {
	for _, x := range v {
		total += x
	}
	return total
}

func sqliteE2E(r *run) {
	var setupS, perPass []float64
	var segments [][]float64
	var meter hostMeter
	var cycles uint64
	passes := 0
	for start := time.Now(); passes < sqliteMinPass || time.Since(start) < r.budget(1); passes++ {
		t, boot, fill, err := sqliteBoot(r, cubicle.ModeFull)
		if err != nil {
			r.problemf("set-up: %v", err)
			return
		}
		setupS = append(setupS, (boot + fill).Seconds())
		meter.start()
		got, _, seg := sqlitePass(r, t, rand.New(rand.NewSource(r.cfg.seed)), passes)
		meter.stop()
		meter.sampleRSS()
		segments, perPass = append(segments, seg), append(perPass, sum(seg))
		if passes > 0 && got != cycles {
			r.problemf("pass %d took %d virtual cycles, pass 0 took %d", passes, got, cycles)
		}
		cycles = got
	}
	r.putHostE2E(setupS, quietSum(segments), perPass, &meter, passes)
	r.put("vcycles_per_op", float64(cycles))
	// Every pass is bit-identical, so the latency distribution of an
	// operation is a point.
	r.put("v_p50_ms", vms(cycles))
	r.put("v_p99_ms", vms(cycles))

	base, _, _, err := sqliteBoot(r, cubicle.ModeUnikraft)
	if err != nil {
		r.problemf("baseline: %v", err)
		return
	}
	baseCycles, _, _ := sqlitePass(r, base, rand.New(rand.NewSource(r.cfg.seed)), -1)
	r.put("vslowdown", ratio(cycles, baseCycles))
}

// sqliteLedger runs three passes: an untraced one for the host time, the
// event counts and the pager statistics, one under the cycle profiler for
// the self-cycles, and a ModeUnikraft one for the per-group slowdowns of
// Figure 6.
func sqliteLedger(r *run) {
	t, boot, fill, err := sqliteBoot(r, cubicle.ModeFull)
	if err != nil {
		r.problemf("set-up: %v", err)
		return
	}
	r.put("boot.boot_host_ms", boot.Seconds()*1000)
	r.put("siege.provision_host_ms", fill.Seconds()*1000)
	before, pager0 := snapshotStats(t.Sys.M), t.DB.Pager().Stats
	cycles, full, seg := sqlitePass(r, t, rand.New(rand.NewSource(r.cfg.seed)), 0)
	hostNs := sum(seg)
	r.putCounts(statsSince(snapshotStats(t.Sys.M), before), 1, t.Sys.Cubs)
	pg := t.DB.Pager().Stats
	hits, misses := pg.Hits-pager0.Hits, pg.Misses-pager0.Misses
	r.put("sqldb.pager_hit_ratio", ratio(hits, hits+misses))
	r.put("sqldb.pager_misses_per_op", float64(misses))
	r.put("sqldb.pager_writes_per_op", float64(pg.Writes-pager0.Writes))
	r.put("sqldb.fsyncs_per_op", float64(pg.Fsyncs-pager0.Fsyncs))

	tt, _, _, err := sqliteBoot(r, cubicle.ModeFull)
	if err != nil {
		r.problemf("set-up: %v", err)
		return
	}
	trc := tt.Sys.M.EnableTracing(1 << 12)
	p0 := profileCycles(trc.Profile())
	traced, _, _ := sqlitePass(r, tt, rand.New(rand.NewSource(r.cfg.seed)), 1)
	total := r.putProfile(profileCycles(trc.Profile()), p0, 1)
	if total != traced || traced != cycles {
		r.problemf("per-cubicle profile sums to %d cycles, the traced pass took %d, the untraced %d", total, traced, cycles)
	}
	r.put("trace.events_per_op", float64(trc.Recorded()))

	base, _, _, err := sqliteBoot(r, cubicle.ModeUnikraft)
	if err != nil {
		r.problemf("baseline: %v", err)
		return
	}
	_, bare, _ := sqlitePass(r, base, rand.New(rand.NewSource(r.cfg.seed)), -1)
	var fullA, fullB, bareA, bareB uint64
	for _, id := range speedtest.QueryIDs {
		if speedtest.InGroupA(id) {
			fullA, bareA = fullA+full[id], bareA+bare[id]
		} else {
			fullB, bareB = fullB+full[id], bareB+bare[id]
		}
	}
	r.put("sqldb.groupA_vslowdown", ratio(fullA, bareA))
	r.put("sqldb.groupB_vslowdown", ratio(fullB, bareB))

	// No load generator stands between the benchmark and this system, so
	// the whole pass is time inside the system under test.
	r.probes(hostNs)
}
