// Open-loop load generation: requests arrive on a fixed virtual-clock
// schedule regardless of whether earlier ones completed, the way real
// traffic behaves. A closed-loop client (Fetch) can never push a server
// past saturation — it waits, so the queue cannot grow; an open-loop sweep
// across offered rates is what exposes the saturation knee and how the
// system degrades beyond it.

package siege

import (
	"fmt"
	"math"
	"slices"
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
}

// OpenLoopStats summarises one open-loop run at a fixed offered rate.
type OpenLoopStats struct {
	OfferedRPS float64
	Arrivals   int
	// OK counts 200 responses; Shed counts explicit refusals (429/503);
	// Errors counts other statuses; Dropped counts connections that never
	// completed (lost SYN, server never answered).
	OK, Shed, Errors, Dropped int
	LatencySummary
	// MaxConns is the high-water mark of concurrent server connections.
	MaxConns int
	// ArenaBytes is ALLOC's total arena footprint at the end of the run —
	// the memory the overload left behind.
	ArenaBytes uint64
}

// olFlight is one arrival whose response has not completed yet.
type olFlight struct {
	conn    *lwip.PeerConn
	startAt uint64
	sent    bool
}

// OpenLoopDriver is the load generator's one request loop, as a resumable
// state machine. Every driver of a single target is this run stepped to
// completion — OpenLoop, Fetch (one arrival due now, with a stop cycle and
// the response kept) and a shard of ParallelOpenLoop — so they cost the
// same virtual cycles by construction. Nothing else in the package steps
// the server and pumps the peer.
type OpenLoopDriver struct {
	t        *Target
	clock    *cycles.Clock
	req      []byte
	requests int // scheduled arrivals

	interval uint64
	start    uint64
	next     uint64
	// stop ends the run with ErrHalted once the clock reaches it:
	// FetchUntil's replay halt, never for an open-loop run.
	stop uint64
	// live holds the arrivals still in flight, in launch order. A flight
	// is classified and its connection dropped the step its FIN arrives,
	// so a step costs O(in flight), not O(launched), and a counted
	// response's buffer goes back to the peer on the spot.
	live []olFlight
	idle int
	// steps is bounded by maxSteps as a safety net; idleLimit breaks the
	// drain phase when that many consecutive steps make no progress, the
	// stragglers counting as dropped.
	steps     int
	maxSteps  int
	idleLimit int
	done      bool

	// kept, when non-nil, receives a completed response itself instead of
	// its class: a Fetch wants the body, a flood only the count.
	kept *Result
	err  error // ErrHalted, or the kept response's parse error

	st      OpenLoopStats // arrivals and outcomes, booked as they happen
	lats    []uint64      // latencies of the 200s; sorted by Finish
	elapsed uint64        // cycles from start to the end of the run
}

// CheckOpenLoop rejects an open loop whose rate, in requests per virtual
// second, is not finite and positive, or whose arrival count is not
// positive. A NaN or infinite rate has no arrival interval.
func CheckOpenLoop(rate float64, requests int) error {
	if !(rate > 0) || math.IsInf(rate, 1) || requests <= 0 {
		return fmt.Errorf("siege: open loop needs a finite positive rate and request count (rate %v, %d requests)", rate, requests)
	}
	return nil
}

// StartOpenLoop begins an open-loop run without driving it; call Step
// until it returns false, then Finish.
func (t *Target) StartOpenLoop(o OpenLoopOptions) (*OpenLoopDriver, error) {
	if err := CheckOpenLoop(o.Rate, o.Requests); err != nil {
		return nil, err
	}
	t.recycleKept()
	r := &OpenLoopDriver{
		t:         t,
		clock:     t.Sys.M.Clock,
		req:       getRequest(o.Path, "HTTP/1.0"),
		requests:  o.Requests,
		interval:  max(1, uint64(float64(cycles.FrequencyHz)/o.Rate)),
		stop:      math.MaxUint64,
		maxSteps:  5_000_000,
		idleLimit: 20_000,
		st:        OpenLoopStats{OfferedRPS: o.Rate},
	}
	r.start = r.clock.Cycles()
	r.next = r.start
	return r, nil
}

// step runs one driver iteration. It returns false once the run is over:
// all arrivals resolved, the clock reached the stop cycle, the drain phase
// gave up, or the step budget ran out.
func (r *OpenLoopDriver) step() bool {
	if r.done || r.steps >= r.maxSteps {
		return r.end()
	}
	r.steps++
	t, clock := r.t, r.clock
	for r.st.Arrivals < r.requests && clock.Cycles() >= r.next {
		r.live = append(r.live, olFlight{conn: t.Peer.Connect(80), startAt: clock.Cycles()})
		r.st.Arrivals++
		r.next += r.interval
	}
	t.Step()
	t.Peer.Pump()
	// The halt sits between the pump and the send, and only reads the
	// clock: virtual time advances in discrete charges inside a step, so
	// the run stops at the first step boundary at or after stop with every
	// event of Cycle <= stop emitted and nothing of the next step begun.
	if clock.Cycles() >= r.stop {
		r.err = ErrHalted
		return r.end()
	}
	progress := false
	live := r.live[:0]
	for _, f := range r.live {
		if f.conn.Established && !f.sent {
			f.conn.Send(r.req)
			f.sent = true
			progress = true
		}
		if f.conn.FinRcvd {
			// The response is complete: book it and detach the connection,
			// so the peer's pump and this loop stay O(in-flight) however
			// many requests the run issues.
			r.complete(f, clock.Cycles())
			progress = true
			continue
		}
		live = append(live, f)
	}
	clear(r.live[len(live):])
	r.live = live
	r.st.MaxConns = max(r.st.MaxConns, t.Srv.Conns())
	if r.st.Arrivals == r.requests && len(r.live) == 0 {
		return r.end()
	}
	if len(r.live) == 0 {
		// Nothing in flight: idle until the next scheduled arrival.
		clock.AdvanceTo(r.next)
		return true
	}
	if r.st.Arrivals == r.requests && !progress {
		// Drain phase: give stalled connections a bounded chance.
		if r.idle++; r.idle > r.idleLimit {
			return r.end()
		}
	} else {
		r.idle = 0
	}
	return true
}

// complete books a flight whose response has arrived and detaches its
// connection: kept whole for a Fetch, otherwise counted by the class of
// its status. A counted response is read here and nowhere else, so its
// buffer is recycled on the spot; a kept one stays with its connection
// until the target's next request (Result.Body).
func (r *OpenLoopDriver) complete(f olFlight, doneAt uint64) {
	status, body, err := parseResponse(f.conn.Received())
	used := doneAt - f.startAt
	if r.kept != nil {
		*r.kept = Result{Status: status, Body: body, Cycles: used, Latency: cycles.Duration(used + r.t.RequestFloor)}
		r.err = err
		f.conn.Release()
		r.t.kept = f.conn
		return
	}
	switch {
	case err != nil:
		r.st.Dropped++
	case status == 200:
		r.st.OK++
		r.lats = append(r.lats, used+r.t.RequestFloor)
	case status == 429 || status == 503:
		r.st.Shed++
	default:
		r.st.Errors++
	}
	recycle(f.conn)
}

// end closes the run and reports false, as step does from then on.
// Flights still in the air never completed: they count as dropped, and
// their connections are detached so the peer keeps nothing of the run.
func (r *OpenLoopDriver) end() bool {
	if !r.done {
		r.done = true
		r.elapsed = r.clock.Cycles() - r.start
		r.st.Dropped += len(r.live)
		for _, f := range r.live {
			f.conn.Release()
		}
		clear(r.live)
		r.live = r.live[:0]
	}
	return false
}

// Step runs up to n driver iterations (n <= 0 means 1). It returns false
// once the run is over.
func (r *OpenLoopDriver) Step(n int) bool {
	for i := 0; i < max(n, 1); i++ {
		if !r.step() {
			return false
		}
	}
	return true
}

// Finish ends the run if it is still going and returns its statistics.
func (r *OpenLoopDriver) Finish() *OpenLoopStats {
	r.end()
	st := r.st
	st.ArenaBytes = r.t.Sys.Alloc.TotalArenaBytes()
	st.LatencySummary = Summarise(r.lats, st.OK, r.elapsed)
	return &st
}

// OpenLoop offers o.Requests arrivals at o.Rate requests per virtual
// second and drives the system until every arrival completes, is shed, or
// stalls. The clock jumps over idle gaps between arrivals, so a run below
// saturation measures unloaded latency and a run above it measures the
// queue the overload builds.
func (t *Target) OpenLoop(o OpenLoopOptions) (*OpenLoopStats, error) {
	r, err := t.StartOpenLoop(o)
	if err != nil {
		return nil, err
	}
	for r.step() {
	}
	return r.Finish(), nil
}

// LatencySummary is the tail of a load run's report: what a set of
// per-request latencies and a span of virtual time say about it.
type LatencySummary struct {
	// GoodputRPS is completed 200s per virtual second of the run.
	GoodputRPS float64
	// P50/P99/P999 are download latencies of the 200 responses.
	P50, P99, P999 time.Duration
	// Elapsed is the virtual wall-clock span of the run.
	Elapsed time.Duration
}

// Summarise sorts lats (cycle latencies of the ok completed requests, in
// place) and reduces them and the run's span in cycles to a summary.
// Percentiles are nearest-rank.
func Summarise(lats []uint64, ok int, span uint64) LatencySummary {
	slices.Sort(lats)
	rank := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return cycles.Duration(lats[min(int(p*float64(len(lats))), len(lats)-1)])
	}
	s := LatencySummary{P50: rank(0.50), P99: rank(0.99), P999: rank(0.999), Elapsed: cycles.Duration(span)}
	if span > 0 {
		s.GoodputRPS = float64(ok) * float64(cycles.FrequencyHz) / float64(span)
	}
	return s
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
