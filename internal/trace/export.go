package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cubicleos/internal/cycles"
)

// cyclesToUs converts virtual cycles to microseconds at the evaluation
// machine's 2.20 GHz — the timestamp unit of the Chrome trace format.
func cyclesToUs(c uint64) float64 {
	return float64(c) / (float64(cycles.FrequencyHz) / 1e6)
}

// --- Chrome trace_event JSON -------------------------------------------------

// chromeEvent is one entry of the Chrome trace_event format (the JSON
// Perfetto and chrome://tracing load).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// chromeTid maps an event to its Chrome track: the thread ID, with
// monitor-context events (thread -1) sharing one synthetic track.
const monitorTid = 99

func chromeTid(ev Event) int {
	if ev.Thread < 0 {
		return monitorTid
	}
	return int(ev.Thread)
}

// ChromeTrace renders the ring contents as a Chrome trace_event
// JSON document. Call spans become B/E duration events on the recording
// thread's track; faults become complete ("X") events spanning the
// handler's cycle cost; everything else becomes thread-scoped instants.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	events := t.Events()
	out := chromeTrace{
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"clock":           "virtual cycles at 2.20 GHz",
			"events_recorded": t.Recorded(),
			"events_dropped":  t.Dropped(),
		},
	}
	// Name the process and the threads that appear.
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "CubicleOS (simulated machine)"},
	})
	seenTids := map[int]bool{}
	for _, ev := range events {
		id := chromeTid(ev)
		if seenTids[id] {
			continue
		}
		seenTids[id] = true
		name := "thread " + itoa(int(ev.Thread))
		if id == monitorTid {
			name = "monitor context"
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: map[string]any{"name": name},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{Pid: 1, Tid: chromeTid(ev), Ts: cyclesToUs(ev.Cycle), Cat: ev.Kind.String()}
		switch ev.Kind {
		case EvCallEnter:
			ce.Ph = "B"
			ce.Name = ev.Name
			ce.Args = map[string]any{
				"from": t.Name(int(ev.Cubicle)), "to": t.Name(int(ev.Other)),
				"stack_bytes": ev.Arg,
			}
		case EvCallExit:
			ce.Ph = "E"
			ce.Name = ev.Name
		case EvFault:
			ce.Ph = "X"
			ce.Name = "fault"
			ce.Ts = cyclesToUs(ev.Cycle - ev.Cost)
			d := cyclesToUs(ev.Cost)
			ce.Dur = &d
			ce.Args = map[string]any{
				"cubicle": t.Name(int(ev.Cubicle)), "owner": t.Name(int(ev.Other)),
				"addr": fmt.Sprintf("%#x", ev.Arg),
			}
		default:
			ce.Ph = "i"
			ce.S = "t"
			ce.Name = ev.Kind.String()
			if ev.Name != "" {
				ce.Name = ev.Kind.String() + ":" + ev.Name
			}
			ce.Args = map[string]any{
				"cubicle": t.Name(int(ev.Cubicle)), "arg": ev.Arg,
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return json.MarshalIndent(out, "", " ")
}

// WriteChromeTrace writes the Chrome trace JSON to w.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	b, err := t.ChromeTrace()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// --- Prometheus text exposition ----------------------------------------------

// WritePrometheus writes the per-edge call-latency histograms, the event
// class cost quantiles and the per-cubicle cycle profile in the Prometheus
// text exposition format. Event counts are not the tracer's: they are the
// monitor's Stats, which its caller renders from cubicle.Counters.
func (t *Tracer) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, a ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, a...)
		}
	}
	p("# HELP cubicleos_call_cycles Cross-cubicle call latency in virtual cycles, per directed edge.\n")
	p("# TYPE cubicleos_call_cycles histogram\n")
	type edgeRow struct {
		e Edge
		h *Hist
	}
	hists := t.edgeHistsByEdge()
	rows := make([]edgeRow, 0, len(hists))
	for e, h := range hists {
		rows = append(rows, edgeRow{e, h})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].e.From != rows[j].e.From {
			return rows[i].e.From < rows[j].e.From
		}
		return rows[i].e.To < rows[j].e.To
	})
	for _, r := range rows {
		from, to := t.Name(int(r.e.From)), t.Name(int(r.e.To))
		var cum uint64
		for _, b := range r.h.Buckets() {
			cum += b.Count
			p("cubicleos_call_cycles_bucket{from=%q,to=%q,le=\"%d\"} %d\n", from, to, b.Le, cum)
		}
		p("cubicleos_call_cycles_bucket{from=%q,to=%q,le=\"+Inf\"} %d\n", from, to, r.h.Count())
		p("cubicleos_call_cycles_sum{from=%q,to=%q} %d\n", from, to, r.h.Sum())
		p("cubicleos_call_cycles_count{from=%q,to=%q} %d\n", from, to, r.h.Count())
	}

	p("# HELP cubicleos_call_cycles_quantile Call latency quantiles in virtual cycles, per directed edge.\n")
	p("# TYPE cubicleos_call_cycles_quantile gauge\n")
	for _, r := range rows {
		from, to := t.Name(int(r.e.From)), t.Name(int(r.e.To))
		s := r.h.Summary()
		p("cubicleos_call_cycles_quantile{from=%q,to=%q,q=\"0.5\"} %d\n", from, to, s.P50)
		p("cubicleos_call_cycles_quantile{from=%q,to=%q,q=\"0.95\"} %d\n", from, to, s.P95)
		p("cubicleos_call_cycles_quantile{from=%q,to=%q,q=\"0.99\"} %d\n", from, to, s.P99)
		p("cubicleos_call_cycles_quantile{from=%q,to=%q,q=\"1\"} %d\n", from, to, s.Max)
	}

	p("# HELP cubicleos_event_cycles_quantile Event cost quantiles in virtual cycles, per event kind.\n")
	p("# TYPE cubicleos_event_cycles_quantile gauge\n")
	for k := Kind(0); k < NumKinds; k++ {
		h := t.ClassHist(k)
		if h == nil || h.Count() == 0 {
			continue
		}
		s := h.Summary()
		p("cubicleos_event_cycles_quantile{kind=%q,q=\"0.5\"} %d\n", k.String(), s.P50)
		p("cubicleos_event_cycles_quantile{kind=%q,q=\"0.95\"} %d\n", k.String(), s.P95)
		p("cubicleos_event_cycles_quantile{kind=%q,q=\"0.99\"} %d\n", k.String(), s.P99)
		p("cubicleos_event_cycles_quantile{kind=%q,q=\"1\"} %d\n", k.String(), s.Max)
	}

	prof := t.Profile()
	p("# HELP cubicleos_cubicle_cycles_total Virtual cycles attributed to each cubicle.\n")
	p("# TYPE cubicleos_cubicle_cycles_total counter\n")
	for _, e := range prof.Entries {
		p("cubicleos_cubicle_cycles_total{cubicle=%q} %d\n", e.Name, e.Cycles)
	}
	p("# HELP cubicleos_virtual_cycles Total virtual cycles on the machine clock.\n")
	p("# TYPE cubicleos_virtual_cycles counter\n")
	p("cubicleos_virtual_cycles %d\n", t.clock.Cycles())
	p("cubicleos_trace_events_recorded %d\n", t.Recorded())
	p("cubicleos_trace_events_dropped %d\n", t.Dropped())
	return err
}

// --- JSON snapshot -----------------------------------------------------------

// SnapshotEdge is one per-edge row of the machine-readable snapshot; its
// call count is Cycles.Count.
type SnapshotEdge struct {
	From   string  `json:"from"`
	To     string  `json:"to"`
	FromID int     `json:"from_id"`
	ToID   int     `json:"to_id"`
	Cycles Summary `json:"cycles"`
}

// Snapshot is the machine-readable digest of a traced run.
type Snapshot struct {
	VirtualCycles uint64             `json:"virtual_cycles"`
	Recorded      uint64             `json:"events_recorded"`
	Dropped       uint64             `json:"events_dropped"`
	Edges         []SnapshotEdge     `json:"edges"`
	EventCycles   map[string]Summary `json:"event_cycles"`
	Profile       Profile            `json:"profile"`
}

// Snapshot builds the machine-readable digest of everything the tracer
// has observed.
func (t *Tracer) Snapshot() *Snapshot {
	s := &Snapshot{
		VirtualCycles: t.clock.Cycles(),
		Recorded:      t.Recorded(),
		Dropped:       t.Dropped(),
		EventCycles:   make(map[string]Summary),
		Profile:       t.Profile(),
	}
	for k := Kind(0); k < NumKinds; k++ {
		if h := t.ClassHist(k); h != nil && h.Count() > 0 {
			s.EventCycles[k.String()] = h.Summary()
		}
	}
	for _, es := range t.EdgeSummaries() {
		s.Edges = append(s.Edges, SnapshotEdge{
			From:   t.Name(int(es.Edge.From)),
			To:     t.Name(int(es.Edge.To)),
			FromID: int(es.Edge.From),
			ToID:   int(es.Edge.To),
			Cycles: es.Hist,
		})
	}
	return s
}
