// Open-loop load generation: requests arrive on a fixed virtual-clock
// schedule regardless of whether earlier ones completed, the way real
// traffic behaves. Closed-loop drivers (Fetch, FetchConcurrent) can never
// push a server past saturation — the client waits, so the queue cannot
// grow; an open-loop sweep across offered rates is what exposes the
// saturation knee and how the system degrades beyond it.

package siege

import (
	"fmt"
	"sort"
	"time"

	"cubicleos/internal/cycles"
	"cubicleos/internal/lwip"
)

// OpenLoopOptions configures one open-loop run.
type OpenLoopOptions struct {
	// Path is the file requested by every arrival.
	Path string
	// Rate is the offered load in requests per virtual second.
	Rate float64
	// Requests is the number of scheduled arrivals.
	Requests int
	// MaxSteps bounds driver iterations as a safety net (0 = default).
	MaxSteps int
	// IdleStepLimit breaks the drain phase when this many consecutive
	// steps make no progress; stragglers count as dropped (0 = default).
	IdleStepLimit int
}

// OpenLoopStats summarises one open-loop run at a fixed offered rate.
type OpenLoopStats struct {
	OfferedRPS float64
	Arrivals   int
	// OK counts 200 responses; Shed counts explicit refusals (429/503);
	// Errors counts other statuses; Dropped counts connections that never
	// completed (lost SYN, server never answered).
	OK, Shed, Errors, Dropped int
	// GoodputRPS is completed 200s per virtual second of the run.
	GoodputRPS float64
	// P50/P99/P999 are download latencies of the 200 responses.
	P50, P99, P999 time.Duration
	// MaxConns is the high-water mark of concurrent server connections.
	MaxConns int
	// ArenaBytes is ALLOC's total arena footprint at the end of the run —
	// the memory the overload left behind.
	ArenaBytes uint64
	// Elapsed is the virtual wall-clock span of the run.
	Elapsed time.Duration
}

// olFlight is one arrival whose response has not completed yet.
type olFlight struct {
	conn    *lwip.PeerConn
	startAt uint64
	sent    bool
}

// openLoopRun is the open-loop driver unrolled into a resumable state
// machine: step() is exactly one iteration of the original driver loop,
// so a run stepped to completion is byte-identical (in virtual time and
// in every counter) to the monolithic loop it replaced — while the
// parallel driver can interleave quanta of many runs.
type openLoopRun struct {
	t     *Target
	o     OpenLoopOptions
	clock *cycles.Clock
	req   []byte

	interval uint64
	start    uint64
	next     uint64
	// live holds the arrivals still in flight, in launch order. A flight
	// is classified and its connection dropped the step its FIN arrives,
	// so a step costs O(in flight), not O(launched), and a response body
	// lives no longer than its request.
	live      []olFlight
	launched  int
	idle      int
	maxConns  int
	steps     int
	maxSteps  int
	idleLimit int

	st            OpenLoopStats // outcome counts, booked as flights complete
	lats          []uint64      // latencies of the 200s; sorted by finish
	elapsedCycles uint64        // filled by finish
}

func (t *Target) newOpenLoopRun(o OpenLoopOptions) (*openLoopRun, error) {
	if o.Rate <= 0 || o.Requests <= 0 {
		return nil, fmt.Errorf("siege: open loop needs positive rate and request count")
	}
	r := &openLoopRun{
		t:         t,
		o:         o,
		clock:     t.Sys.M.Clock,
		req:       getRequest(o.Path, siegeHeaders),
		maxSteps:  o.MaxSteps,
		idleLimit: o.IdleStepLimit,
	}
	if r.maxSteps == 0 {
		r.maxSteps = 5_000_000
	}
	if r.idleLimit == 0 {
		r.idleLimit = 20_000
	}
	r.interval = uint64(float64(cycles.FrequencyHz) / o.Rate)
	if r.interval == 0 {
		r.interval = 1
	}
	r.start = r.clock.Cycles()
	r.next = r.start
	return r, nil
}

// step runs one driver iteration. It returns false once the run is over
// (all arrivals resolved, the drain phase gave up, or the step budget ran
// out).
func (r *openLoopRun) step() bool {
	if r.steps >= r.maxSteps {
		return false
	}
	r.steps++
	t, clock := r.t, r.clock
	for r.launched < r.o.Requests && clock.Cycles() >= r.next {
		r.live = append(r.live, olFlight{conn: t.Peer.Connect(80), startAt: clock.Cycles()})
		r.launched++
		r.next += r.interval
	}
	t.stepH.Call(t.Sys.Env)
	t.Peer.Pump()
	progress := false
	live := r.live[:0]
	for _, f := range r.live {
		if f.conn.Established && !f.sent {
			f.conn.Send(r.req)
			f.sent = true
			progress = true
		}
		if f.conn.FinRcvd {
			// The response is complete: classify it and detach the
			// connection, so the peer's pump and this loop stay O(in-flight)
			// however many requests the run issues.
			r.classify(f, clock.Cycles())
			f.conn.Release()
			progress = true
			continue
		}
		live = append(live, f)
	}
	clear(r.live[len(live):])
	r.live = live
	if c := t.Srv.Conns(); c > r.maxConns {
		r.maxConns = c
	}
	if r.launched == r.o.Requests && len(r.live) == 0 {
		return false
	}
	if len(r.live) == 0 {
		// Nothing in flight: idle until the next scheduled arrival.
		clock.AdvanceTo(r.next)
		return true
	}
	if r.launched == r.o.Requests && !progress {
		// Drain phase: give stalled connections a bounded chance.
		if r.idle++; r.idle > r.idleLimit {
			return false
		}
	} else {
		r.idle = 0
	}
	return true
}

// classify books a completed flight by the status of its response.
func (r *openLoopRun) classify(f olFlight, doneAt uint64) {
	status, _, err := parseResponse(f.conn.Received())
	switch {
	case err != nil:
		r.st.Dropped++
	case status == 200:
		r.st.OK++
		r.lats = append(r.lats, doneAt-f.startAt+r.t.RequestFloor)
	case status == 429 || status == 503:
		r.st.Shed++
	default:
		r.st.Errors++
	}
}

// finish computes the run's statistics. Flights still live never
// completed; they and unparseable responses count as dropped.
func (r *openLoopRun) finish() *OpenLoopStats {
	st := r.st
	st.OfferedRPS = r.o.Rate
	st.Arrivals = r.launched
	st.Dropped += len(r.live)
	st.MaxConns = r.maxConns
	st.ArenaBytes = r.t.Sys.Alloc.TotalArenaBytes()
	elapsed := r.clock.Cycles() - r.start
	r.elapsedCycles = elapsed
	st.Elapsed = cycles.Duration(elapsed)
	if elapsed > 0 {
		st.GoodputRPS = float64(st.OK) * float64(cycles.FrequencyHz) / float64(elapsed)
	}
	sort.Slice(r.lats, func(i, j int) bool { return r.lats[i] < r.lats[j] })
	st.P50 = percentile(r.lats, 0.50)
	st.P99 = percentile(r.lats, 0.99)
	st.P999 = percentile(r.lats, 0.999)
	return &st
}

// OpenLoop offers o.Requests arrivals at o.Rate requests per virtual
// second and drives the system until every arrival completes, is shed, or
// stalls. The clock jumps over idle gaps between arrivals, so a run below
// saturation measures unloaded latency and a run above it measures the
// queue the overload builds.
func (t *Target) OpenLoop(o OpenLoopOptions) (*OpenLoopStats, error) {
	r, err := t.newOpenLoopRun(o)
	if err != nil {
		return nil, err
	}
	for r.step() {
	}
	return r.finish(), nil
}

// Percentile converts the p-th percentile of an ascending cycle-latency
// slice to a duration (nearest-rank). Exported for the cluster driver,
// which pools latencies across backends but classifies them itself.
func Percentile(sorted []uint64, p float64) time.Duration {
	return percentile(sorted, p)
}

func percentile(sorted []uint64, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return cycles.Duration(sorted[i])
}

// OpenLoopDriver is the open-loop run as a resumable state machine, for
// callers that interleave driving with observation — the cubicle-top
// dashboard steps the run one quantum at a time and renders the metrics
// ring between quanta. Step and Finish mirror the internal driver
// exactly, so a run stepped to completion produces the same virtual-time
// figures as OpenLoop.
type OpenLoopDriver struct {
	r        *openLoopRun
	finished *OpenLoopStats
}

// StartOpenLoop begins an open-loop run without driving it; call Step
// until it returns false, then Finish.
func (t *Target) StartOpenLoop(o OpenLoopOptions) (*OpenLoopDriver, error) {
	r, err := t.newOpenLoopRun(o)
	if err != nil {
		return nil, err
	}
	return &OpenLoopDriver{r: r}, nil
}

// Step runs up to n driver iterations (n <= 0 means 1). It returns false
// once the run is over.
func (d *OpenLoopDriver) Step(n int) bool {
	if d.finished != nil {
		return false
	}
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if !d.r.step() {
			return false
		}
	}
	return true
}

// Launched returns how many arrivals have been issued so far.
func (d *OpenLoopDriver) Launched() int { return d.r.launched }

// InFlight returns how many requests are currently open.
func (d *OpenLoopDriver) InFlight() int { return len(d.r.live) }

// Finish classifies every flight and returns the run's statistics
// (idempotent after the first call).
func (d *OpenLoopDriver) Finish() *OpenLoopStats {
	if d.finished == nil {
		d.finished = d.r.finish()
	}
	return d.finished
}

// OpenLoopSweep runs an offered-load sweep: one fresh target per rate
// (built by mk, which provisions the workload) so runs do not inherit each
// other's residue, each driven through OpenLoop with o.Rate overridden.
func OpenLoopSweep(rates []float64, mk func() (*Target, error), o OpenLoopOptions) ([]*OpenLoopStats, error) {
	out := make([]*OpenLoopStats, 0, len(rates))
	for _, r := range rates {
		t, err := mk()
		if err != nil {
			return nil, fmt.Errorf("siege: sweep boot at %.0f rps: %w", r, err)
		}
		ro := o
		ro.Rate = r
		st, err := t.OpenLoop(ro)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}
