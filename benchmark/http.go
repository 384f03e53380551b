package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/siege"
)

// fileSet is the static content of one workload: seeded pseudo-random
// bodies (a body of zeros would let a copy that never happened pass) and
// their checksums. A few seed-dependent bytes come off every size, so
// that the seed reaches the virtual clock too without a body ever
// spilling into one more page or segment than its nominal size has.
type fileSet struct {
	paths  []string
	bodies [][]byte
	sums   []uint32
}

func makeFiles(rng *rand.Rand, count, size int) fileSet {
	var fs fileSet
	for i := 0; i < count; i++ {
		body := make([]byte, size-rng.Intn(64))
		rng.Read(body)
		fs.paths = append(fs.paths, fmt.Sprintf("/f%02d.bin", i))
		fs.bodies = append(fs.bodies, body)
		fs.sums = append(fs.sums, crc32.ChecksumIEEE(body))
	}
	return fs
}

func (fs fileSet) provision(t *siege.Target) error {
	for i, p := range fs.paths {
		if err := t.PutFile(p, fs.bodies[i]); err != nil {
			return err
		}
	}
	return nil
}

// fetchFn is Target.Fetch or the benchmark's own copy of its loop.
type fetchFn func(t *siege.Target, path string, req int) (*siege.Result, error)

func plainFetch(t *siege.Target, path string, _ int) (*siege.Result, error) { return t.Fetch(path) }

// fetch requests one file, counts the request and verifies the status
// and body of the response. It returns nil for a response that failed.
func (r *run) fetch(fetch fetchFn, t *siege.Target, fs fileSet, file, req int) *siege.Result {
	r.attempted++
	res, err := fetch(t, fs.paths[file], req)
	if err != nil || res.Status != 200 || crc32.ChecksumIEEE(res.Body) != fs.sums[file] {
		r.failed++
		if r.failed == 1 {
			r.problemf("first bad response: file %s: %+v, error %v", fs.paths[file], res, err)
		}
		return nil
	}
	return res
}

// tracedFetch is a copy of Target.Fetch's loop with a span around every
// call into a layer: Target.Step is the whole system under test,
// Peer.Pump the host-side TCP peer, and the rest the siege client. It
// must cost the same virtual cycles as Fetch; the ledger run checks.
func (l *spanLog) tracedFetch(t *siege.Target, path string, req int) (*siege.Result, error) {
	root := l.begin("request", req, -1)
	defer l.end(root)
	clock := t.Sys.M.Clock
	start := clock.Cycles()

	c := l.begin("siege.client", req, root)
	conn := t.Peer.Connect(80)
	get := []byte(fmt.Sprintf("GET %s HTTP/1.0\r\nHost: cubicle\r\nUser-Agent: siege-sim\r\n\r\n", path))
	l.end(c)

	sent := false
	for i := 0; i < 5_000_000 && !conn.FinRcvd; i++ {
		s := l.begin("httpd.step", req, root)
		t.Step()
		l.end(s)
		l.steps++
		p := l.begin("lwip.peer_pump", req, root)
		l.frames += t.Peer.Pump()
		l.end(p)
		if conn.Established && !sent {
			c := l.begin("siege.client", req, root)
			conn.Send(get)
			l.end(c)
			sent = true
		}
	}
	c = l.begin("siege.client", req, root)
	defer l.end(c)
	defer conn.Release()
	if !conn.FinRcvd {
		return nil, fmt.Errorf("request for %s did not complete", path)
	}
	status, body, err := parseResponse(conn.Received())
	if err != nil {
		return nil, err
	}
	used := clock.Cycles() - start
	return &siege.Result{Status: status, Body: body, Cycles: used, Latency: cycles.Duration(used + t.RequestFloor)}, nil
}

func parseResponse(raw []byte) (status int, body []byte, err error) {
	head, rest, ok := strings.Cut(string(raw), "\r\n\r\n")
	if !ok {
		return 0, nil, fmt.Errorf("malformed response")
	}
	fields := strings.Fields(strings.SplitN(head, "\r\n", 2)[0])
	if len(fields) < 2 {
		return 0, nil, fmt.Errorf("malformed status line")
	}
	status, err = strconv.Atoi(fields[1])
	return status, []byte(rest), err
}

// httpLoop is a closed loop of one HTTP/1.0 client over a bare ModeFull
// deployment: the next request leaves when the previous response is in.
type httpLoop struct {
	files, size int
	// batch requests share one host-time sample; warm requests run
	// before timing; the first vBatches batches of the timed region
	// supply the virtual statistics, so that those do not depend on how
	// many batches the host gets through in the measuring time.
	batch, warm, vBatches int
	// baseline requests run on a ModeUnikraft twin for the slowdown;
	// profiled requests run under the cycle profiler in the ledger run.
	baseline, profiled int
	setups             int
}

var (
	httpSmall = httpLoop{files: 32, size: 4 << 10, batch: 250, warm: 200, vBatches: 80, baseline: 200, profiled: 5000, setups: 25}
	httpBulk  = httpLoop{files: 1, size: 1 << 20, batch: 1, warm: 20, vBatches: 1000, baseline: 20, profiled: 100, setups: 9}
)

type setupTimes struct {
	boot, provision, total time.Duration
	// warmClock is the virtual clock after the warm-up: every set-up of
	// one run must read the same.
	warmClock uint64
}

// setup boots a target, provisions the files and warms it up with the
// same seeded requests every time. Every HTTP target reaps closed
// sockets: without it per-request host cost grows with every connection
// the run has ever closed.
func (w httpLoop) setup(r *run, fs fileSet, opts siege.Options, fetch fetchFn) (*siege.Target, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	opts.ReapClosed = true
	t, err := siege.NewTargetOpts(opts)
	if err != nil {
		return nil, st, err
	}
	st.boot = time.Since(t0)
	if err := fs.provision(t); err != nil {
		return nil, st, err
	}
	st.provision = time.Since(t0) - st.boot
	picks := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < r.n(w.warm); i++ {
		r.fetch(fetch, t, fs, picks.Intn(len(fs.paths)), -1)
	}
	st.total = time.Since(t0)
	st.warmClock = t.Sys.M.Clock.Cycles()
	return t, st, nil
}

// setupN sets up n times and returns the last target and every timing,
// checking that the virtual clock after warm-up repeats exactly.
func (w httpLoop) setupN(r *run, n int, fs fileSet, opts siege.Options, fetch fetchFn) (*siege.Target, []setupTimes) {
	var t *siege.Target
	var all []setupTimes
	for i := 0; i < n; i++ {
		tgt, st, err := w.setup(r, fs, opts, fetch)
		if err != nil {
			r.problemf("set-up: %v", err)
			return nil, nil
		}
		if len(all) > 0 && st.warmClock != all[0].warmClock {
			r.problemf("virtual clock after warm-up differs between set-ups: %d and %d", all[0].warmClock, st.warmClock)
		}
		t, all = tgt, append(all, st)
	}
	return t, all
}

// column returns one duration of every set-up, in the given unit.
func column(ds []setupTimes, pick func(setupTimes) time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(pick(d)) / float64(unit)
	}
	return out
}

func bootTime(s setupTimes) time.Duration      { return s.boot }
func provisionTime(s setupTimes) time.Duration { return s.provision }
func totalTime(s setupTimes) time.Duration     { return s.total }

// putLatencies reports the median and 99th percentile of modelled
// request latencies (virtual cycles, floor included) in milliseconds.
func (r *run) putLatencies(lat []uint64) (p50 uint64) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 = percentileU64(lat, 0.50)
	r.put("v_p50_ms", vms(p50))
	r.put("v_p99_ms", vms(percentileU64(lat, 0.99)))
	return p50
}

// vms converts virtual cycles to milliseconds at the modelled 2.2 GHz.
func vms(c uint64) float64 { return float64(c) * 1000 / float64(cycles.FrequencyHz) }

func (w httpLoop) e2e(r *run) {
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), w.files, w.size)
	t, setups := w.setupN(r, w.setups, fs, siege.Options{Mode: cubicle.ModeFull}, plainFetch)
	if t == nil {
		return
	}
	batch, vBatches := r.n(w.batch), r.n(w.vBatches)
	picks := rand.New(rand.NewSource(r.cfg.seed + 1))
	clock := t.Sys.M.Clock
	var hostNs []float64
	var lat []uint64
	var vcycles uint64
	var meter hostMeter
	ops := 0
	c0 := clock.Cycles()
	meter.start()
	for start := time.Now(); len(hostNs) < vBatches || time.Since(start) < r.budget(1); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			res := r.fetch(plainFetch, t, fs, picks.Intn(len(fs.paths)), ops+i)
			if res != nil && len(hostNs) < vBatches {
				lat = append(lat, res.Cycles+t.RequestFloor)
			}
		}
		hostNs = append(hostNs, float64(time.Since(t0))/float64(batch))
		ops += batch
		if len(hostNs)%8 == 0 {
			meter.sampleRSS()
		}
		if len(hostNs) == vBatches {
			vcycles = clock.Cycles() - c0
		}
	}
	meter.stop()
	meter.sampleRSS()
	r.putHostE2E(column(setups, totalTime, time.Second), quiet(hostNs), hostNs, &meter, ops)
	r.put("vcycles_per_op", float64(vcycles)/float64(vBatches*batch))
	p50 := r.putLatencies(lat)

	// The denominator of the slowdown: the same files and picks on a
	// ModeUnikraft twin (no isolation), untimed.
	w.warm = 0
	base, _, err := w.setup(r, fs, siege.Options{Mode: cubicle.ModeUnikraft}, plainFetch)
	if err != nil {
		r.problemf("baseline: %v", err)
		return
	}
	picks = rand.New(rand.NewSource(r.cfg.seed + 1))
	var baseLat []uint64
	for i := 0; i < r.n(w.baseline); i++ {
		if res := r.fetch(plainFetch, base, fs, picks.Intn(len(fs.paths)), i); res != nil {
			baseLat = append(baseLat, res.Cycles+base.RequestFloor)
		}
	}
	sort.Slice(baseLat, func(i, j int) bool { return baseLat[i] < baseLat[j] })
	r.put("vslowdown", ratio(p50, percentileU64(baseLat, 0.50)))
}

// ledger attributes the closed loop's cost to layers. Leg A drives the
// benchmark's own copy of the request loop on an untraced target for the
// host-time spans and the event counts; leg B runs a fixed number of
// requests under the cycle profiler for the virtual self-cycles.
func (w httpLoop) ledger(r *run) {
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), w.files, w.size)
	opts := siege.Options{Mode: cubicle.ModeFull}

	// Leg A. A twin warmed up through Fetch itself proves that the copy
	// of the loop costs the same virtual cycles.
	_, ref, err := w.setup(r, fs, opts, plainFetch)
	if err != nil {
		r.problemf("set-up: %v", err)
		return
	}
	t, setups := w.setupN(r, 3, fs, opts, r.spans.tracedFetch)
	if t == nil {
		return
	}
	if got := setups[0].warmClock; got != ref.warmClock {
		r.problemf("the benchmark's request loop costs %d virtual cycles over the warm-up, Fetch costs %d", got, ref.warmClock)
	}
	r.putSampled("boot.boot_host_ms", median, column(setups, bootTime, time.Millisecond))
	r.putSampled("siege.provision_host_ms", median, column(setups, provisionTime, time.Millisecond))

	picks := rand.New(rand.NewSource(r.cfg.seed + 1))
	from := len(r.spans.spans)
	r.spans.steps, r.spans.frames = 0, 0
	before := snapshotStats(t.Sys.M)
	ops := 0
	for start := time.Now(); ops == 0 || time.Since(start) < r.budget(0.3); ops++ {
		r.fetch(r.spans.tracedFetch, t, fs, picks.Intn(len(fs.paths)), ops)
	}
	r.putCounts(statsSince(snapshotStats(t.Sys.M), before), ops, t.Sys.Cubs)
	stepNs := r.putSpanShares("request", from, ops)

	// Leg B.
	opts.TraceEvents = 1 << 12
	tt, _, err := w.setup(r, fs, opts, plainFetch)
	if err != nil {
		r.problemf("set-up: %v", err)
		return
	}
	trc := tt.Sys.M.Tracer()
	p0, c0, ev0 := profileCycles(trc.Profile()), tt.Sys.M.Clock.Cycles(), trc.Recorded()
	picks = rand.New(rand.NewSource(r.cfg.seed + 1))
	profiled := r.n(w.profiled)
	for i := 0; i < profiled; i++ {
		r.fetch(plainFetch, tt, fs, picks.Intn(len(fs.paths)), i)
	}
	total := r.putProfile(profileCycles(trc.Profile()), p0, profiled)
	if clock := tt.Sys.M.Clock.Cycles() - c0; total != clock {
		r.problemf("per-cubicle profile sums to %d cycles, the clock advanced %d", total, clock)
	}
	r.put("trace.events_per_op", float64(trc.Recorded()-ev0)/float64(profiled))

	r.probes(stepNs)
}

// putSpanShares reports where the host time of the benchmark's request
// loop went, from the spans recorded since index from under spans named
// root, and returns the host time per operation spent inside the system
// under test.
func (r *run) putSpanShares(root string, from, ops int) (stepNs float64) {
	dur := r.spans.totals(from)
	per := func(name string) float64 { return dur[name] / float64(ops) }
	stepNs = per("httpd.step")
	r.put("httpd.step_host_ns_per_op", stepNs)
	r.put("httpd.steps_per_op", float64(r.spans.steps)/float64(ops))
	r.put("lwip.peer_pump_host_ns_per_op", per("lwip.peer_pump"))
	r.put("lwip.peer_frames_per_op", float64(r.spans.frames)/float64(ops))
	r.put("siege.client_host_ns_per_op", per("siege.client"))
	if whole := dur[root]; whole > 0 {
		r.put("siege.harness_share", (dur["lwip.peer_pump"]+dur["siege.client"])/whole)
	}
	return stepNs
}
