package cubicle

import (
	"cubicleos/internal/cycles"
	"cubicleos/internal/trace"
)

// This file is the virtual-time metrics pipeline: every MetricsInterval
// virtual cycles the monitor snapshots its architectural counters, the
// health ladder and the tracer's latency digests into a bounded
// time-series ring. The samples feed cubicle-inspect's metrics section
// and the prod-openloop stream digest. Like the trace rings, the sample ring
// is bounded and counts every overwrite: overload can age out history but
// never lies about it.

// MetricsSample is one interval's snapshot of the running system.
type MetricsSample struct {
	// Seq is the sample's position in the stream (survives ring wrap).
	Seq uint64 `json:"seq"`
	// Cycle is the virtual clock at snapshot time.
	Cycle uint64 `json:"cycle"`
	// Interval is the virtual cycles since the previous sample (the
	// configured interval, or more if crossings were sparse).
	Interval uint64 `json:"interval_cycles"`

	// Per-interval deltas of the monitor's architectural counters.
	Calls           uint64 `json:"calls"`
	SharedCalls     uint64 `json:"shared_calls"`
	Faults          uint64 `json:"faults"`
	Retags          uint64 `json:"retags"`
	WRPKRUs         uint64 `json:"wrpkrus"`
	Sheds           uint64 `json:"sheds"`
	Retries         uint64 `json:"retries"`
	ContainedFaults uint64 `json:"contained_faults"`
	Restarts        uint64 `json:"restarts"`
	TLBShootdowns   uint64 `json:"tlb_shootdowns"`

	// Rates over the interval, in events per virtual second.
	CallRate  float64 `json:"call_rate_per_s"`
	FaultRate float64 `json:"fault_rate_per_s"`
	ShedRate  float64 `json:"shed_rate_per_s"`

	// Health-ladder population at snapshot time.
	Healthy     int `json:"healthy"`
	Quarantined int `json:"quarantined"`
	Dead        int `json:"dead"`

	// Crossing-latency digest in cycles, from the tracer's cumulative
	// call-exit histogram (zero when tracing is off).
	CallP50 uint64 `json:"call_p50_cycles"`
	CallP99 uint64 `json:"call_p99_cycles"`
}

// metricsCollector is the bounded time-series ring behind the pipeline.
type metricsCollector struct {
	interval uint64
	next     uint64 // next sampling threshold on the virtual clock
	ring     []MetricsSample
	n        uint64 // samples taken (ring index n & mask)
	prev     Stats  // counters at the previous sample; deltas subtract it
	prevCyc  uint64
}

// EnableMetrics starts the virtual-time metrics pipeline: every interval
// virtual cycles (sampled at crossing granularity — the first crossing at
// or past each threshold takes the snapshot) the monitor records one
// MetricsSample into a bounded ring of trace.RingCap(ringCap) samples.
// Boot wiring; call once.
func (m *Monitor) EnableMetrics(interval uint64, ringCap int) {
	if interval == 0 {
		interval = 1
	}
	now := m.Clock.Cycles()
	m.met = &metricsCollector{
		interval: interval,
		next:     now + interval,
		ring:     make([]MetricsSample, trace.RingCap(ringCap)),
		prev:     m.Stats,
		prevCyc:  now,
	}
}

// maybeSampleMetrics takes a snapshot when the crossing clock has passed
// the next sampling threshold. Callers gate on m.met != nil so the
// disabled state costs one nil check.
func (m *Monitor) maybeSampleMetrics(now uint64) {
	mc := m.met
	if now < mc.next {
		return
	}
	mc.sample(m, now)
	mc.next = cycles.NextTick(mc.next, mc.interval, now)
}

func (mc *metricsCollector) sample(m *Monitor, now uint64) {
	cur, prev := &m.Stats, &mc.prev
	span := now - mc.prevCyc
	if span == 0 {
		span = 1
	}
	secs := float64(span) / float64(cycles.FrequencyHz)
	s := MetricsSample{
		Seq:             mc.n,
		Cycle:           now,
		Interval:        span,
		Calls:           cur.CallsTotal - prev.CallsTotal,
		SharedCalls:     cur.SharedCalls - prev.SharedCalls,
		Faults:          cur.Faults - prev.Faults,
		Retags:          cur.Retags - prev.Retags,
		WRPKRUs:         cur.WRPKRUs - prev.WRPKRUs,
		Sheds:           cur.Sheds - prev.Sheds,
		Retries:         cur.Retries - prev.Retries,
		ContainedFaults: cur.ContainedFaults - prev.ContainedFaults,
		Restarts:        cur.Restarts - prev.Restarts,
		TLBShootdowns:   cur.TLBShootdowns - prev.TLBShootdowns,
	}
	s.CallRate = float64(s.Calls) / secs
	s.FaultRate = float64(s.Faults) / secs
	s.ShedRate = float64(s.Sheds) / secs
	for _, c := range m.cubicles {
		switch c.health {
		case Healthy:
			s.Healthy++
		case Quarantined:
			s.Quarantined++
		case Dead:
			s.Dead++
		}
	}
	if trc := m.trc; trc != nil {
		if h := trc.ClassHist(trace.EvCallExit); h != nil {
			s.CallP50 = h.Quantile(0.50)
			s.CallP99 = h.Quantile(0.99)
		}
	}
	mc.ring[mc.n&uint64(len(mc.ring)-1)] = s
	mc.n++
	mc.prev = *cur
	mc.prevCyc = now
}

// MetricsEnabled reports whether the metrics pipeline is running.
func (m *Monitor) MetricsEnabled() bool { return m.met != nil }

// MetricsInterval returns the configured sampling interval (0 = disabled).
func (m *Monitor) MetricsInterval() uint64 {
	if m.met == nil {
		return 0
	}
	return m.met.interval
}

// MetricsSamples returns the surviving samples in chronological order.
func (m *Monitor) MetricsSamples() []MetricsSample {
	mc := m.met
	if mc == nil {
		return nil
	}
	capa := uint64(len(mc.ring))
	n := mc.n
	if n <= capa {
		out := make([]MetricsSample, n)
		copy(out, mc.ring[:n])
		return out
	}
	out := make([]MetricsSample, capa)
	start := n & (capa - 1)
	copy(out, mc.ring[start:])
	copy(out[capa-start:], mc.ring[:start])
	return out
}

// MetricsRecorded returns how many samples have been taken in total.
func (m *Monitor) MetricsRecorded() uint64 {
	if m.met == nil {
		return 0
	}
	return m.met.n
}

// MetricsDropped returns how many samples ring wrap has overwritten. The
// bounded ring never loses history silently.
func (m *Monitor) MetricsDropped() uint64 {
	mc := m.met
	if mc == nil {
		return 0
	}
	if capa := uint64(len(mc.ring)); mc.n > capa {
		return mc.n - capa
	}
	return 0
}
