package main

import (
	"math/rand"
	"reflect"
	"time"

	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
)

// The cluster workload: four backends behind the balancer, an open-loop
// flood over keep-alive HTTP/1.1 connections, and backend 2 killed early
// in the run — drained, probed, restarted warm from its last checkpoint
// and readmitted while the other three carry the load.
const (
	clusterBackends = 4
	clusterRate     = 6000
	clusterArrivals = 2000
	clusterKillAt   = 25_000_000
	clusterVictim   = 2
	clusterMinReps  = 5
	// clusterFloor arrivals are the fewest that outlast the failover: the
	// victim is readmitted some 60M cycles into the run.
	clusterFloor = 500
)

// clusterN scales an arrival count, never below the floor.
func clusterN(r *run, x int) int { return max(r.n(x), clusterFloor) }

// clusterBoot boots and provisions a fleet, and fetches the file once
// from every backend to verify the body it will serve.
func clusterBoot(r *run, fs fileSet, mode cubicle.Mode, traceEvents int) (*cluster.Cluster, time.Duration, error) {
	t0 := time.Now()
	c, err := cluster.New(cluster.Options{
		Backends: clusterBackends, Mode: mode, Seed: uint64(r.cfg.seed),
		CheckpointInterval: 5_000_000, ReapClosed: true, TraceEvents: traceEvents,
		Script: []cluster.Event{{AtCycle: clusterKillAt, Backend: clusterVictim, Action: cluster.ActKill}},
	})
	if err != nil {
		return nil, 0, err
	}
	if err := c.PutFile(fs.paths[0], fs.bodies[0]); err != nil {
		return nil, 0, err
	}
	for _, b := range c.Backends {
		r.fetch(plainFetch, b.T, fs, 0, -1)
	}
	return c, time.Since(t0), nil
}

// clusterRun floods a freshly booted fleet and checks the failover it
// scripts.
func clusterRun(r *run, c *cluster.Cluster, fs fileSet, arrivals int) (*cluster.Stats, time.Duration, error) {
	s := r.spans.begin("cluster.run_open_loop", -1, -1)
	st, err := c.RunOpenLoop(cluster.RunOptions{Path: fs.paths[0], Rate: r.seededRate(clusterRate), Requests: arrivals})
	r.spans.end(s)
	host := time.Duration(r.spans.spans[s].End - r.spans.spans[s].Start)
	if err != nil {
		return nil, 0, err
	}
	r.attempted += st.Arrivals
	if bad := st.Shed + st.Errors + st.Dropped; bad > 0 {
		r.failed += bad
		r.problemf("cluster run: %d ok, %d shed, %d errors, %d dropped", st.OK, st.Shed, st.Errors, st.Dropped)
	}
	if st.Drains < 1 || st.Readmits < 1 || st.Sys.WarmRestarts < 1 || c.Backends[clusterVictim].Health() != "healthy" {
		r.problemf("failover did not complete: %d drains, %d readmits, %d warm restarts, victim ends %s",
			st.Drains, st.Readmits, st.Sys.WarmRestarts, c.Backends[clusterVictim].Health())
	}
	return st, host, nil
}

// clusterBootRun is clusterBoot then clusterRun.
func clusterBootRun(r *run, fs fileSet, mode cubicle.Mode, arrivals int) (st *cluster.Stats, setup, host time.Duration, err error) {
	c, setup, err := clusterBoot(r, fs, mode, 0)
	if err != nil {
		return nil, 0, 0, err
	}
	st, host, err = clusterRun(r, c, fs, arrivals)
	return st, setup, host, err
}

func clusterE2E(r *run) {
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), 1, 4<<10)
	arrivals := clusterN(r, clusterArrivals)
	var setupS, hostNs []float64
	var meter hostMeter
	var first *cluster.Stats
	reps := 0
	for start := time.Now(); reps < clusterMinReps || time.Since(start) < r.budget(1); reps++ {
		meter.start()
		st, setup, host, err := clusterBootRun(r, fs, cubicle.ModeFull, arrivals)
		meter.stop()
		meter.sampleRSS()
		if err != nil {
			r.problemf("rep %d: %v", reps, err)
			return
		}
		setupS = append(setupS, setup.Seconds())
		hostNs = append(hostNs, float64(host)/float64(arrivals))
		if first == nil {
			first = st
		} else if !reflect.DeepEqual(st, first) {
			r.problemf("rep %d differs from rep 0 in its virtual statistics", reps)
		}
	}
	r.putHostE2E(setupS, quiet(hostNs), hostNs, &meter, reps*arrivals)
	r.put("vcycles_per_op", float64(cycles.FrequencyHz)/first.GoodputRPS)
	r.put("v_p50_ms", float64(first.P50)/1e6)
	r.put("v_p99_ms", float64(first.P99)/1e6)

	base, _, _, err := clusterBootRun(r, fs, cubicle.ModeUnikraft, clusterN(r, clusterArrivals/4))
	if err != nil {
		r.problemf("baseline: %v", err)
		return
	}
	r.put("vslowdown", float64(first.P50)/float64(base.P50))
}

// clusterLedger runs the fleet twice at a quarter of the arrivals: once
// untraced for the host time per backend, once under every backend's
// cycle profiler for the counts and self-cycles. The cluster driver is
// one call from outside, so its one span has no children.
func clusterLedger(r *run) {
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), 1, 4<<10)
	arrivals := clusterN(r, clusterArrivals/4)

	plain, setup, host, err := clusterBootRun(r, fs, cubicle.ModeFull, arrivals)
	if err != nil {
		r.problemf("untraced run: %v", err)
		return
	}
	hostNs := float64(host) / float64(arrivals)
	r.put("boot.boot_host_ms", setup.Seconds()*1000/clusterBackends)
	r.put("cluster.host_ns_per_backend_op", hostNs/clusterBackends)

	c, _, err := clusterBoot(r, fs, cubicle.ModeFull, 1<<12)
	if err != nil {
		r.problemf("traced run: %v", err)
		return
	}
	// fleet sums every backend's counters, profile and event count.
	fleet := func() (cubicle.Stats, map[string]uint64, uint64) {
		sum, prof, events := cubicle.NewStats(), map[string]uint64{}, uint64(0)
		for _, b := range c.Backends {
			sum.Merge(&b.T.Sys.M.Stats)
			trc := b.T.Sys.M.Tracer()
			for name, cyc := range profileCycles(trc.Profile()) {
				prof[name] += cyc
			}
			events += trc.Recorded()
		}
		return sum, prof, events
	}
	before, p0, ev0 := fleet()
	st, _, err := clusterRun(r, c, fs, arrivals)
	if err != nil {
		r.problemf("traced run: %v", err)
		return
	}
	if !reflect.DeepEqual(st, plain) {
		r.problemf("the traced cluster run differs from the untraced one in its virtual statistics")
	}
	after, p1, ev1 := fleet()
	r.putCounts(statsSince(after, before), arrivals, c.Backends[0].T.Sys.Cubs)
	r.putProfile(p1, p0, arrivals)
	r.put("trace.events_per_op", float64(ev1-ev0)/float64(arrivals))
	per := func(n uint64) float64 { return 1000 * float64(n) / float64(arrivals) }
	r.put("cluster.retries_per_kop", per(st.Retries))
	r.put("cluster.hedges_per_kop", per(st.Hedges))
	r.put("cluster.failovers", float64(st.Failovers))
	r.put("cluster.drains", float64(st.Drains))
	r.put("cluster.readmits", float64(st.Readmits))
	r.put("cluster.route_faults", float64(st.RouteFaults))

	r.probes(hostNs)
}
