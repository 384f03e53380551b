package main

import (
	"hash/crc32"
	"math/rand"
	"sort"
	"time"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/httpd"
	"cubicleos/internal/lwip"
	"cubicleos/internal/siege"
)

// The production workload: an open loop (arrivals on a fixed virtual
// schedule, whether or not earlier ones completed) against the one
// configuration that has tracer, metrics, supervisor, governor and
// checkpointing all on, and many connections in flight.
const (
	prodArrivals = 10_000
	prodRefRate  = 3500 // timed reps: below the knee, nothing is shed
	prodKneeRate = 4000 // v_p50_ms / v_p99_ms: the last rate inside the limit
	prodOverRate = 6000 // vcycles_per_op: capacity under overload
	prodMinReps  = 5
	prodWarm     = 200
	prodSLOms    = 10.0
)

// prodSweep are the offered rates of the ledger run's capacity sweep.
var prodSweep = []float64{2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500, 6000}

func prodOptions(mode cubicle.Mode, traceEvents int) siege.Options {
	restart := cubicle.DefaultRestartPolicy()
	restart.CrossingBudget = 0
	return siege.Options{
		Mode:               mode,
		Supervision:        &restart,
		Governance:         &httpd.Governance{MaxConns: 16, RetryAfter: 1, Retry: cubicle.DefaultRetryPolicy()},
		WireCap:            256,
		TraceEvents:        traceEvents,
		MetricsInterval:    2_200_000,
		MetricsRing:        256,
		CheckpointInterval: 5_000_000,
	}
}

const prodTraceRing = 1 << 16

// prod is the single 4 KiB file of the workload and the closed-loop
// warm-up that verifies its body on every fresh target (the open-loop
// driver of siege reports statuses only).
var prod = httpLoop{files: 1, size: 4 << 10, warm: prodWarm}

// seededRate takes up to 0.2 % off a nominal offered rate, so that the
// seed reaches the arrival schedule.
func (r *run) seededRate(nominal float64) float64 {
	return nominal * (1 - 0.002*rand.New(rand.NewSource(r.cfg.seed+2)).Float64())
}

// prodChunk is how many driver steps share one host-time sample. Every
// rep is the same virtual run, so chunk k does the same work in each.
const prodChunk = 500

// prodRun offers arrivals at rate on a fresh target and returns siege's
// statistics with the host time of each chunk of driver steps (the last
// sample is Finish, which classifies every response).
func prodRun(r *run, fs fileSet, opts siege.Options, rate float64, arrivals int) (st *siege.OpenLoopStats, setup setupTimes, chunks []float64, err error) {
	t, setup, err := prod.setup(r, fs, opts, plainFetch)
	if err != nil {
		return nil, setup, nil, err
	}
	d, err := t.StartOpenLoop(siege.OpenLoopOptions{Path: fs.paths[0], Rate: r.seededRate(rate), Requests: arrivals})
	if err != nil {
		return nil, setup, nil, err
	}
	for more := true; more; {
		t0 := time.Now()
		more = d.Step(prodChunk)
		chunks = append(chunks, float64(time.Since(t0)))
	}
	t0 := time.Now()
	st = d.Finish()
	return st, setup, append(chunks, float64(time.Since(t0))), nil
}

// countOpenLoop books an open-loop run's arrivals; refusals are failures
// only where the offered rate is one the deployment must sustain.
func (r *run) countOpenLoop(st *siege.OpenLoopStats, mustSustain bool) {
	r.attempted += st.Arrivals
	bad := st.Errors + st.Dropped
	if mustSustain {
		bad += st.Shed
	}
	if bad > 0 {
		r.failed += bad
		r.problemf("open loop at %.0f rps: %d ok, %d shed, %d errors, %d dropped", st.OfferedRPS, st.OK, st.Shed, st.Errors, st.Dropped)
	}
}

func prodE2E(r *run) {
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), prod.files, prod.size)
	arrivals := r.n(prodArrivals)
	var setupS, hostNs []float64
	var chunks [][]float64
	var meter hostMeter
	var first *siege.OpenLoopStats
	reps := 0
	for start := time.Now(); reps < prodMinReps || time.Since(start) < r.budget(1); reps++ {
		meter.start()
		st, setup, host, err := prodRun(r, fs, prodOptions(cubicle.ModeFull, prodTraceRing), prodRefRate, arrivals)
		meter.stop()
		meter.sampleRSS()
		if err != nil {
			r.problemf("rep %d: %v", reps, err)
			return
		}
		r.countOpenLoop(st, true)
		setupS = append(setupS, setup.total.Seconds())
		chunks, hostNs = append(chunks, host), append(hostNs, sum(host)/float64(arrivals))
		if first == nil {
			first = st
		} else if *st != *first || len(host) != len(chunks[0]) {
			r.problemf("rep %d differs from rep 0 in its virtual statistics: %+v and %+v", reps, *st, *first)
		}
	}
	// Allocation is metered over whole reps, set-up included: a fresh
	// target per rep is part of the operation here.
	r.putHostE2E(setupS, quietSum(chunks)/float64(arrivals), hostNs, &meter, reps*arrivals)

	knee, _, _, err := prodRun(r, fs, prodOptions(cubicle.ModeFull, prodTraceRing), prodKneeRate, arrivals)
	if err != nil {
		r.problemf("knee run: %v", err)
		return
	}
	r.countOpenLoop(knee, true)
	r.put("v_p50_ms", float64(knee.P50)/1e6)
	r.put("v_p99_ms", float64(knee.P99)/1e6)

	over, _, _, err := prodRun(r, fs, prodOptions(cubicle.ModeFull, prodTraceRing), prodOverRate, arrivals)
	if err != nil {
		r.problemf("overload run: %v", err)
		return
	}
	r.countOpenLoop(over, false)
	r.put("vcycles_per_op", float64(cycles.FrequencyHz)/over.GoodputRPS)

	base, _, _, err := prodRun(r, fs, prodOptions(cubicle.ModeUnikraft, prodTraceRing), prodKneeRate, r.n(prodArrivals/4))
	if err != nil {
		r.problemf("baseline: %v", err)
		return
	}
	r.countOpenLoop(base, true)
	r.put("vslowdown", float64(knee.P50)/float64(base.P50))
}

// openLoopTrace is what the benchmark's own open-loop driver observed.
type openLoopTrace struct {
	ok, bad int
	lat     []uint64 // sorted, floor included
	lag     []uint64 // sorted: clock at launch minus scheduled due time
	cycles  uint64
}

// tracedOpenLoop is a copy of siege's open-loop driver with a span
// around every call into a layer, a body check on every response, and
// the generator's lateness recorded per arrival. It must reproduce
// Target.OpenLoop's virtual statistics; the ledger run checks.
func (l *spanLog) tracedOpenLoop(t *siege.Target, fs fileSet, rate float64, arrivals int) openLoopTrace {
	type flight struct {
		conn            *lwip.PeerConn
		startAt, doneAt uint64
		sent, done      bool
	}
	clock := t.Sys.M.Clock
	get := []byte("GET " + fs.paths[0] + " HTTP/1.0\r\nHost: cubicle\r\nUser-Agent: siege-sim\r\n\r\n")
	interval := uint64(float64(cycles.FrequencyHz) / rate)
	start := clock.Cycles()
	next := start
	var flights []*flight
	var out openLoopTrace
	open, idle := 0, 0
	root := l.begin("run", -1, -1)
	for step := 0; step < 5_000_000; step++ {
		c := l.begin("siege.client", step, root)
		for len(flights) < arrivals && clock.Cycles() >= next {
			flights = append(flights, &flight{conn: t.Peer.Connect(80), startAt: clock.Cycles()})
			out.lag = append(out.lag, clock.Cycles()-next)
			open++
			next += interval
		}
		l.end(c)
		s := l.begin("httpd.step", step, root)
		t.Step()
		l.end(s)
		l.steps++
		p := l.begin("lwip.peer_pump", step, root)
		l.frames += t.Peer.Pump()
		l.end(p)
		c = l.begin("siege.client", step, root)
		progress := false
		for _, f := range flights {
			if f.done {
				continue
			}
			if f.conn.Established && !f.sent {
				f.conn.Send(get)
				f.sent, progress = true, true
			}
			if f.conn.FinRcvd {
				f.done, f.doneAt, progress = true, clock.Cycles(), true
				f.conn.Release()
				open--
			}
		}
		l.end(c)
		if len(flights) == arrivals && open == 0 {
			break
		}
		if open == 0 {
			clock.AdvanceTo(next)
			continue
		}
		if len(flights) == arrivals && !progress {
			if idle++; idle > 20_000 {
				break
			}
		} else {
			idle = 0
		}
	}
	out.cycles = clock.Cycles() - start
	c := l.begin("siege.client", -1, root)
	for _, f := range flights {
		status, body, err := parseResponse(f.conn.Received())
		if !f.done || err != nil || status != 200 || crc32.ChecksumIEEE(body) != fs.sums[0] {
			out.bad++
			continue
		}
		out.ok++
		out.lat = append(out.lat, f.doneAt-f.startAt+t.RequestFloor)
	}
	l.end(c)
	l.end(root)
	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	sort.Slice(out.lag, func(i, j int) bool { return out.lag[i] < out.lag[j] })
	return out
}

// prodLedger attributes the production configuration's cost: one run of
// the benchmark's own driver for spans, counts and (the tracer being
// part of this configuration) the cycle profile; paired reps with the
// tracer on and off; the driver's scaling with run length; and the
// capacity sweep.
func prodLedger(r *run) {
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), prod.files, prod.size)
	full := prodOptions(cubicle.ModeFull, prodTraceRing)
	arrivals := r.n(prodArrivals / 4)

	ref, _, _, err := prodRun(r, fs, full, prodRefRate, arrivals)
	if err != nil {
		r.problemf("reference run: %v", err)
		return
	}
	r.countOpenLoop(ref, true)

	t, setups := prod.setupN(r, 3, fs, full, plainFetch)
	if t == nil {
		return
	}
	r.putSampled("boot.boot_host_ms", median, column(setups, bootTime, time.Millisecond))
	r.putSampled("siege.provision_host_ms", median, column(setups, provisionTime, time.Millisecond))
	trc := t.Sys.M.Tracer()
	before, p0, ev0 := snapshotStats(t.Sys.M), profileCycles(trc.Profile()), trc.Recorded()
	from := len(r.spans.spans)
	r.spans.steps, r.spans.frames = 0, 0
	got := r.spans.tracedOpenLoop(t, fs, r.seededRate(prodRefRate), arrivals)
	r.attempted += arrivals
	r.failed += got.bad
	if p50, p99 := cycles.Duration(percentileU64(got.lat, 0.50)), cycles.Duration(percentileU64(got.lat, 0.99)); got.ok != ref.OK || p50 != ref.P50 || p99 != ref.P99 || cycles.Duration(got.cycles) != ref.Elapsed {
		r.problemf("the benchmark's open-loop driver reads %d ok, p50 %v, p99 %v, elapsed %v; siege's %d, %v, %v, %v",
			got.ok, p50, p99, cycles.Duration(got.cycles), ref.OK, ref.P50, ref.P99, ref.Elapsed)
	}
	r.putCounts(statsSince(snapshotStats(t.Sys.M), before), arrivals, t.Sys.Cubs)
	if total := r.putProfile(profileCycles(trc.Profile()), p0, arrivals); total != got.cycles {
		r.problemf("per-cubicle profile sums to %d cycles, the clock advanced %d", total, got.cycles)
	}
	r.put("trace.events_per_op", float64(trc.Recorded()-ev0)/float64(arrivals))
	// The ring is sized for the last moments before a fault, not for a
	// whole run: it wraps, and the streaming counters stay exact.
	r.put("trace.dropped_events", float64(trc.Dropped()))
	r.put("siege.gen_lag_p99_vus", float64(percentileU64(got.lag, 0.99))*1e6/float64(cycles.FrequencyHz))
	stepNs := r.putSpanShares("run", from, arrivals)

	// perArrival times one more rep of the reference rate and returns its
	// host time per arrival.
	perArrival := func(opts siege.Options, n int) float64 {
		st, _, chunks, err := prodRun(r, fs, opts, prodRefRate, n)
		if err != nil {
			r.problemf("rep of %d arrivals: %v", n, err)
			return 0
		}
		r.countOpenLoop(st, true)
		return sum(chunks) / float64(n)
	}

	// Tracing tax on the whole configuration: reps interleaved so that
	// host drift hits both sides.
	bare := prodOptions(cubicle.ModeFull, 0)
	var tax []float64
	for start := time.Now(); len(tax) < 3 || time.Since(start) < r.budget(0.15); {
		tax = append(tax, perArrival(full, arrivals)/perArrival(bare, arrivals))
	}
	r.putSampled("trace.host_ratio", median, tax)

	// The driver rescans every flight it ever launched on each step, so
	// its cost per arrival grows with the length of the run.
	var long, short []float64
	for i := 0; i < 3; i++ {
		long = append(long, perArrival(full, r.n(prodArrivals)))
		for j := 0; j < 3; j++ {
			short = append(short, perArrival(full, r.n(prodArrivals/10)))
		}
	}
	r.put("siege.openloop_scaling_ratio", quiet(long)/quiet(short))

	// Capacity: the highest swept rate that meets the latency limit with
	// nothing refused, failed or left in flight.
	best := 0.0
	for _, rate := range prodSweep {
		st, _, _, err := prodRun(r, fs, full, rate, arrivals)
		if err != nil {
			r.problemf("sweep at %.0f rps: %v", rate, err)
			return
		}
		r.countOpenLoop(st, false)
		if st.OK != st.Arrivals || float64(st.P99)/1e6 > prodSLOms {
			break
		}
		best = r.seededRate(rate)
	}
	r.put("siege.v_max_rate_in_slo_rps", best)

	r.probes(stepNs)
}
