// The cluster driver: a deterministic open-loop load generator over the
// fleet. Cluster time advances in fixed quanta; each quantum the driver
// fires scripted chaos, launches due arrivals, steps every backend until
// it waits for input and then moves its virtual clock up to the cluster
// clock, reconciles the fleet's health view (drains, probes,
// re-admissions), and polls every in-flight request for responses,
// timeouts, hedges and retries.
// One goroutine, no wall-clock reads: the same seed replays the same
// run bit for bit.
//
// This is a loop of its own, not a parameter of siege's OpenLoopDriver: it
// steps many targets against one cluster clock, and a flight's legs outlive
// any one connection. From siege it takes the request builder and response
// framer (KAConn), the latency summary and Target.Step.

package cluster

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/siege"
)

// Quantum is the cluster-clock step in cycles: small enough to resolve
// request latencies (~5 ms floor), large enough that backend stepping
// amortises.
const Quantum = 500_000

// maxStepsPerQuantum bounds how many server iterations one backend may
// take inside a quantum before its clock is force-advanced — a guard
// against steps that stop charging virtual time.
const maxStepsPerQuantum = 4096

// RunOptions configures one open-loop cluster run.
type RunOptions struct {
	// Path is the file requested by every arrival.
	Path string
	// Rate is the offered load in requests per virtual second,
	// cluster-wide.
	Rate float64
	// Requests is the number of scheduled arrivals.
	Requests int
}

// BackendStats is one backend's row of the cluster report.
type BackendStats struct {
	Index  int
	Health string
	// Balancer-side counters.
	Routed, OK, Shed, Errors, Dropped uint64
	Drains, Readmits                  uint64
	// Sys is the backend monitor's full counter set (crossings, faults,
	// quarantines, restarts, route/drain/failover events, ...).
	Sys cubicle.Stats
}

// Stats summarises one cluster run.
type Stats struct {
	Backends   int
	OfferedRPS float64
	Arrivals   int
	// OK counts 200s; Shed counts refusals (429/503) still standing
	// after retries; Errors counts other statuses and routing failures;
	// Dropped counts requests that never completed.
	OK, Shed, Errors, Dropped int
	// The latencies summarised are end to end, queueing and retries
	// included; Elapsed is the cluster-clock span of the run.
	siege.LatencySummary
	// Balancer mechanics.
	Retries, Hedges, HedgeWins, Failovers uint64
	Drains, Readmits, RouteFaults         uint64
	PerBackend                            []BackendStats
	// Sys is every backend monitor's counters merged (Stats.Merge).
	Sys cubicle.Stats
}

// leg is one attempt of a request on one backend.
type leg struct {
	backend   int
	conn      *siege.KAConn
	sent      bool
	abandoned bool
}

// flight is one open-loop arrival, across all its retry/hedge legs.
type flight struct {
	arrival uint64 // scheduled cluster cycle
	// attempts counts legs issued so far (first try included).
	attempts int
	legs     []*leg
	deadline uint64
	hedgeAt  uint64
	// retryAt > 0 parks the flight until its backoff elapses;
	// retryExclude is the backend the failed leg ran on.
	retryAt      uint64
	retryExclude int
	done         bool
}

// run is the driver state for one RunOpenLoop call.
type run struct {
	c  *Cluster
	o  RunOptions
	st *Stats

	// flights holds the arrivals not yet settled, in launch order: a
	// quantum's poll costs O(in flight), not O(launched).
	flights   []*flight
	lat       []uint64
	launched  int
	completed int
}

// RunOpenLoop drives an open-loop flood at the given rate across the
// fleet and returns the merged report. It may be called repeatedly; the
// cluster clock keeps advancing across calls.
func (c *Cluster) RunOpenLoop(o RunOptions) (*Stats, error) {
	if err := siege.CheckOpenLoop(o.Rate, o.Requests); err != nil {
		return nil, err
	}
	interval := uint64(cycles.FrequencyHz / o.Rate)
	if interval == 0 {
		interval = 1
	}
	// A safety net on driver iterations: the arrival schedule plus a
	// generous drain margin.
	maxQ := int((uint64(o.Requests)*interval)/Quantum) + 400_000
	r := &run{c: c, o: o, st: &Stats{Backends: len(c.Backends), OfferedRPS: o.Rate, Arrivals: o.Requests}}
	start := c.now
	nextAt := c.now + interval
	scriptFired := 0
	for q := 0; r.completed < o.Requests && q < maxQ; q++ {
		c.now += Quantum
		for r.launched < o.Requests && nextAt <= c.now {
			f := &flight{arrival: nextAt, retryExclude: -1}
			r.launched++
			r.flights = append(r.flights, f)
			r.dispatch(f, -1)
			nextAt += interval
		}
		// Chaos fires after dispatch, before the backends run: a kill
		// lands on requests already routed but not yet served, exactly
		// the in-flight work a real crash takes down.
		c.processScript(&scriptFired)
		for _, b := range c.Backends {
			c.stepBackend(b)
		}
		c.reconcileHealth(o.Path)
		r.pollFlights()
	}
	// Stragglers at the quanta cap never completed.
	for _, f := range r.flights {
		if !f.done {
			r.finish(f, "dropped", -1)
		}
	}
	r.assemble(start)
	return r.st, nil
}

// stepBackend advances one backend's virtual clock to the cluster
// clock, driving its server loop and pumping its wire peer. Input reaches
// a backend only from the driver, between quanta: once a step reports no
// activity and puts no frame on the wire, the server is waiting for it,
// and its clock jumps to the cluster clock. The first step of every
// quantum always runs, so checkpoint cadence, quarantine backoffs and
// governance deadlines are seen at least once a quantum.
func (c *Cluster) stepBackend(b *Backend) {
	clk := b.T.Sys.M.Clock
	for i := 0; clk.Cycles() < c.now; i++ {
		if i >= maxStepsPerQuantum {
			clk.AdvanceTo(c.now)
			break
		}
		before := clk.Cycles()
		var activity uint64
		if cf := cubicle.CatchContained(func() { activity = b.T.Step() }); cf != nil {
			// NGINX itself is quarantined: nothing to drive until the
			// supervisor lets it back in. Burn the rest of the quantum.
			clk.AdvanceTo(c.now)
			break
		}
		frames := b.T.Peer.Pump()
		if activity == 0 && frames == 0 || clk.Cycles() == before {
			// Idle until the driver's next input, or a step that charged
			// nothing and would stall virtual time.
			clk.AdvanceTo(c.now)
			break
		}
	}
	b.T.Peer.Pump()
}

// reconcileHealth turns the health hooks' raw cubicle transitions into
// balancer decisions: newly sick backends start draining, recovered
// ones are re-admitted, and drained backends past their deadline get a
// re-admission probe (which is also what triggers the supervisor's
// lazy in-place restart).
func (c *Cluster) reconcileHealth(probePath string) {
	for _, b := range c.Backends {
		sick := len(b.sick) > 0
		if sick && !b.draining {
			b.draining = true
			b.drainUntil = c.now + drainDeadline
			b.Drains++
			c.Drains++
			b.T.Sys.M.NoteDrain("drain", b.Index, b.drainUntil)
		}
		if b.draining && !sick {
			b.draining = false
			b.Readmits++
			c.Readmits++
			b.T.Sys.M.NoteDrain("readmit", b.Index, 0)
			if b.probe != nil && !b.probe.abandoned {
				// Let a still-pending probe response drain on the floor.
				b.probe.conn.Conn.Close()
				b.probe = nil
			}
		}
		if b.draining && sick && !b.dead() {
			c.probeStep(b, probePath)
		}
	}
}

// probeStep starts or advances a drained backend's re-admission probe:
// one synthetic request past its drain deadline. A 200 means the
// supervisor restarted the sick cubicle on the way (warm when a
// checkpoint exists) — the health hook has already cleared the sick
// set, and the next reconcile pass re-admits the backend.
func (c *Cluster) probeStep(b *Backend, path string) {
	if b.probe == nil {
		if c.now < b.drainUntil {
			return
		}
		b.probe = &leg{backend: b.Index, conn: b.T.OpenKA()}
		b.T.Sys.M.NoteRoute("probe", b.Index, 0)
		return
	}
	p := b.probe
	if !p.sent && p.conn.Conn.Established {
		p.conn.Request(path)
		p.sent = true
		return
	}
	resp, err := p.conn.Next()
	switch {
	case err == nil && resp == nil && !p.conn.Conn.FinRcvd && c.now < b.drainUntil+drainDeadline:
		return // still waiting
	case resp != nil && resp.Status == 200:
		// Recovery confirmed; re-admission happens on the next pass.
		b.release(p.conn)
	default:
		// Refused, closed on, or timed out: try again a deadline later.
		p.conn.Conn.Close()
		b.drainUntil = c.now + drainDeadline
	}
	b.probe = nil
}

// dispatch routes a flight's next leg. Routing failure (no eligible
// backend) finishes the flight as an error carrying the *RouteFault.
func (r *run) dispatch(f *flight, exclude int) {
	f.attempts++
	idx, err := r.c.Route(f.attempts, exclude)
	if err != nil {
		r.finish(f, "error", -1)
		return
	}
	b := r.c.Backends[idx]
	b.inflight++
	f.legs = append(f.legs, &leg{backend: idx, conn: b.acquire()})
	f.deadline = r.c.now + requestTimeout
	f.hedgeAt = 0
	if r.c.O.HedgeAfter > 0 {
		f.hedgeAt = r.c.now + r.c.O.HedgeAfter
	}
}

// abandon retires a leg without an answer: its connection is closed
// (poisoned framing cannot be pooled) and the backend's load gauge
// drops.
func (r *run) abandon(l *leg) {
	if l.abandoned {
		return
	}
	l.abandoned = true
	l.conn.Conn.Close()
	r.c.Backends[l.backend].inflight--
}

// budgetOK checks the retry budget: retries and hedges together may not
// exceed the configured fraction of arrivals so far.
func (r *run) budgetOK() bool {
	return float64(r.c.Retries+r.c.Hedges) < r.c.O.RetryBudget*float64(r.launched)
}

// scheduleRetry parks a flight for its backoff after a failed leg on
// backend failed. The failover is recorded on the failed backend's
// monitor with the reason the balancer acted for.
func (r *run) scheduleRetry(f *flight, failed int) {
	for _, l := range f.legs {
		r.abandon(l)
	}
	f.legs = f.legs[:0]
	b := r.c.Backends[failed]
	reason := "retry"
	if b.draining || len(b.sick) > 0 {
		reason = "drain"
	}
	r.c.Retries++
	r.c.Failovers++
	b.T.Sys.M.NoteFailover(reason, failed, uint64(f.attempts))
	f.retryAt = r.c.now + cubicle.Backoff(backoffBase, backoffFactor, backoffMax, f.attempts)
	f.retryExclude = failed
	f.hedgeAt = 0
}

// finish settles a flight into its terminal class. leg < 0 attributes
// nothing to a backend (routing failures, stragglers with no live leg).
func (r *run) finish(f *flight, kind string, backend int) {
	for _, l := range f.legs {
		r.abandon(l)
	}
	f.done = true
	r.completed++
	var b *Backend
	if backend >= 0 {
		b = r.c.Backends[backend]
	}
	switch kind {
	case "ok":
		r.st.OK++
		if b != nil {
			b.OK++
		}
		r.lat = append(r.lat, r.c.now-f.arrival+r.c.Backends[backend].T.RequestFloor)
	case "shed":
		r.st.Shed++
		if b != nil {
			b.Shed++
		}
	case "dropped":
		r.st.Dropped++
		if b != nil {
			b.Dropped++
		}
	default:
		r.st.Errors++
		if b != nil {
			b.Errors++
		}
	}
}

// settle classifies a completed response, retrying refusals when the
// budget allows.
func (r *run) settle(f *flight, win *leg, resp *siege.KAResponse) {
	// The winner's connection goes back to the pool; every other live
	// leg is abandoned.
	b := r.c.Backends[win.backend]
	b.inflight--
	win.abandoned = true // keeps finish/abandon from double-closing
	if resp.Close || win.conn.Conn.FinRcvd {
		// Server retired the connection.
	} else {
		b.release(win.conn)
	}
	if win != f.legs[0] {
		r.c.HedgeWins++
	}
	switch {
	case resp.Status == 200:
		r.finish(f, "ok", win.backend)
	case resp.Status == 429 || resp.Status == 503:
		if f.attempts < maxAttempts && r.budgetOK() {
			r.scheduleRetry(f, win.backend)
			return
		}
		r.finish(f, "shed", win.backend)
	default:
		r.finish(f, "error", win.backend)
	}
}

// pollFlights advances every live flight — sends on freshly-established
// connections, reaps responses, fires hedges, and enforces timeouts and
// retry backoffs — and drops the settled ones from the list, keeping
// launch order.
func (r *run) pollFlights() {
	live := r.flights[:0]
	for _, f := range r.flights {
		if !f.done {
			r.pollFlight(f)
		}
		if !f.done {
			live = append(live, f)
		}
	}
	clear(r.flights[len(live):])
	r.flights = live
}

// pollFlight advances one unsettled flight.
func (r *run) pollFlight(f *flight) {
	// Parked for backoff?
	if f.retryAt > 0 {
		if r.c.now >= f.retryAt {
			f.retryAt = 0
			r.dispatch(f, f.retryExclude)
		}
		return
	}
	live := 0
	var lastBackend = -1
	for _, l := range f.legs {
		if l.abandoned {
			continue
		}
		lastBackend = l.backend
		if !l.sent && l.conn.Conn.Established {
			l.conn.Request(r.o.Path)
			l.sent = true
		}
		resp, err := l.conn.Next()
		if err != nil {
			r.abandon(l)
			continue
		}
		if resp != nil {
			r.settle(f, l, resp)
			break
		}
		if l.conn.Conn.FinRcvd {
			// Closed on without an answer (truncated response).
			r.abandon(l)
			continue
		}
		live++
	}
	if f.done || f.retryAt > 0 {
		return
	}
	if live == 0 {
		// Every leg died without a response.
		if lastBackend >= 0 && f.attempts < maxAttempts && r.budgetOK() {
			r.scheduleRetry(f, lastBackend)
		} else {
			r.finish(f, "dropped", lastBackend)
		}
		return
	}
	if r.c.now >= f.deadline {
		// Unanswered past the request timeout.
		if f.attempts < maxAttempts && r.budgetOK() {
			r.scheduleRetry(f, lastBackend)
		} else {
			r.finish(f, "dropped", lastBackend)
		}
		return
	}
	if f.hedgeAt > 0 && r.c.now >= f.hedgeAt && live == 1 &&
		f.attempts < maxAttempts && r.budgetOK() {
		// Hedge: a duplicate leg on a different backend; first answer
		// wins. Recorded as a failover (reason hedge) on the backend
		// receiving the duplicate.
		f.hedgeAt = 0
		f.attempts++
		idx, err := r.c.Route(f.attempts, lastBackend)
		if err == nil {
			r.c.Hedges++
			r.c.Failovers++
			hb := r.c.Backends[idx]
			hb.T.Sys.M.NoteFailover("hedge", idx, uint64(f.attempts))
			hb.inflight++
			f.legs = append(f.legs, &leg{backend: idx, conn: hb.acquire()})
		}
	}
}

// assemble finalises the report: latency percentiles, goodput, and the
// per-backend and merged system counters.
func (r *run) assemble(start uint64) {
	st := r.st
	st.LatencySummary = siege.Summarise(r.lat, st.OK, r.c.now-start)
	st.Retries = r.c.Retries
	st.Hedges = r.c.Hedges
	st.HedgeWins = r.c.HedgeWins
	st.Failovers = r.c.Failovers
	st.Drains = r.c.Drains
	st.Readmits = r.c.Readmits
	st.RouteFaults = r.c.RouteFaults
	st.Sys = cubicle.NewStats()
	for _, b := range r.c.Backends {
		st.Sys.Merge(&b.T.Sys.M.Stats)
		st.PerBackend = append(st.PerBackend, BackendStats{
			Index:    b.Index,
			Health:   b.Health(),
			Routed:   b.Routed,
			OK:       b.OK,
			Shed:     b.Shed,
			Errors:   b.Errors,
			Dropped:  b.Dropped,
			Drains:   b.Drains,
			Readmits: b.Readmits,
			Sys:      b.T.Sys.M.Stats,
		})
	}
}
