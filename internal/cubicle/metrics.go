package cubicle

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"cubicleos/internal/cycles"
	"cubicleos/internal/trace"
)

// This file is the virtual-time metrics pipeline: every MetricsInterval
// virtual cycles the monitor snapshots its architectural counters, the
// health ladder and the tracer's latency digests into a bounded
// time-series ring. The samples drive the live cubicle-top dashboard and
// the OpenMetrics exposition the simulated httpd serves from /metrics —
// the observability layer dogfooding the isolation boundaries it
// measures. Like the trace rings, the sample ring is bounded and counts
// every overwrite: overload can age out history but never lies about it.

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
	QuotaFaults     uint64 `json:"quota_faults"`
	DeadlineFaults  uint64 `json:"deadline_faults"`
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
	m.recomputeFastCross()
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
		QuotaFaults:     cur.QuotaFaults - prev.QuotaFaults,
		DeadlineFaults:  cur.DeadlineFaults - prev.DeadlineFaults,
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

// LastMetricsSample returns the most recent sample (zero, false if none).
func (m *Monitor) LastMetricsSample() (MetricsSample, bool) {
	mc := m.met
	if mc == nil || mc.n == 0 {
		return MetricsSample{}, false
	}
	return mc.ring[(mc.n-1)&uint64(len(mc.ring)-1)], true
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

// --- OpenMetrics exposition ---------------------------------------------------

// WriteOpenMetrics writes the monitor's counters, the latest metrics
// sample's rate gauges, and the trace ring's accounting in OpenMetrics
// text exposition format, terminated by the mandatory "# EOF" marker. This
// is the body the simulated httpd serves from /metrics.
func (m *Monitor) WriteOpenMetrics(w io.Writer) error {
	bw := bufio.NewWriter(w)
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(bw, "# HELP cubicleos_%s %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE cubicleos_%s counter\n", name)
		fmt.Fprintf(bw, "cubicleos_%s_total %d\n", name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(bw, "# HELP cubicleos_%s %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE cubicleos_%s gauge\n", name)
		fmt.Fprintf(bw, "cubicleos_%s %g\n", name, v)
	}
	for _, c := range Counters {
		counter(c.Name, c.Help, *c.Field(&m.Stats))
	}
	gauge("virtual_seconds", "Virtual time elapsed", float64(m.Clock.Cycles())/float64(cycles.FrequencyHz))
	if mc := m.met; mc != nil {
		counter("metrics_samples", "Metrics snapshots taken", m.MetricsRecorded())
		counter("metrics_samples_dropped", "Metrics snapshots aged out of the ring", m.MetricsDropped())
		if last, ok := m.LastMetricsSample(); ok {
			gauge("call_rate", "Crossings per virtual second over the last interval", last.CallRate)
			gauge("fault_rate", "Faults per virtual second over the last interval", last.FaultRate)
			gauge("shed_rate", "Sheds per virtual second over the last interval", last.ShedRate)
			gauge("healthy_cubicles", "Cubicles in the Healthy state", float64(last.Healthy))
			gauge("quarantined_cubicles", "Cubicles in the Quarantined state", float64(last.Quarantined))
			gauge("dead_cubicles", "Cubicles in the Dead state", float64(last.Dead))
			gauge("call_p50_cycles", "Median crossing latency in cycles", float64(last.CallP50))
			gauge("call_p99_cycles", "P99 crossing latency in cycles", float64(last.CallP99))
		}
	}
	if trc := m.trc; trc != nil {
		counter("trace_events_recorded", "Events recorded by the trace ring", trc.Recorded())
		counter("trace_events_dropped", "Events overwritten by trace ring wrap", trc.Dropped())
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

// OpenMetricsBody renders WriteOpenMetrics into a byte slice, the form the
// httpd metrics endpoint consumes.
func (m *Monitor) OpenMetricsBody() []byte {
	var sb strings.Builder
	m.WriteOpenMetrics(&sb)
	return []byte(sb.String())
}
