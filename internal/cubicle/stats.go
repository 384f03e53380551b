package cubicle

import (
	"sort"

	"cubicleos/internal/trace"
)

// Edge identifies a directed cross-cubicle call edge, used to reproduce
// the call-count graphs of Figures 5 and 8.
type Edge struct {
	From, To ID
}

// Stats collects the architectural event counts that drive the cost model
// and the paper's figures.
type Stats struct {
	// Calls counts cross-cubicle calls per directed edge (only calls that
	// actually cross cubicle boundaries; calls within a cubicle or into
	// shared cubicles are counted separately).
	Calls map[Edge]uint64
	// CallsTotal is the total number of cross-cubicle calls.
	CallsTotal uint64
	// SharedCalls counts calls into shared cubicles (never involve the
	// TCB, §3 ❹).
	SharedCalls uint64
	// Faults counts protection traps taken into the monitor.
	Faults uint64
	// Retags counts pages retagged by the trap-and-map handler.
	Retags uint64
	// WRPKRUs counts executed wrpkru instructions.
	WRPKRUs uint64
	// WindowOps counts window-management API calls.
	WindowOps uint64
	// WindowSearchSteps counts descriptor entries visited by the linear
	// window search.
	WindowSearchSteps uint64
	// StackBytesCopied counts in-stack argument bytes copied across
	// per-cubicle stacks by trampolines.
	StackBytesCopied uint64
	// BulkBytesCopied counts bytes moved by checked memcpy operations.
	BulkBytesCopied uint64
	// DeniedFaults counts protection faults that were not authorised by
	// any window (i.e. real isolation violations).
	DeniedFaults uint64
	// KeyEvictions counts MPK keys recycled by tag virtualisation.
	KeyEvictions uint64
	// ContainedFaults counts faults contained at a crossing, including
	// fail-fast refusals of calls into quarantined or dead cubicles.
	ContainedFaults uint64
	// Quarantines counts health transitions into the Quarantined state.
	Quarantines uint64
	// Restarts counts supervisor restarts of quarantined cubicles.
	Restarts uint64
	// InjectedFaults counts deterministic fault injections that fired.
	InjectedFaults uint64
	// Sheds counts requests refused by admission control (429/503).
	Sheds uint64
	// Retries counts bounded-retry attempts after calls refused by a
	// quarantined dependency.
	Retries uint64
	// TLBShootdowns counts cross-core retag synchronisation rounds: on an
	// SMP machine every trap-and-map or key-eviction retag pays one IPI
	// round trip per remote core (libmpk's per-thread sync). Always 0 on
	// single-core deployments.
	TLBShootdowns uint64
	// Always zero: compile shim whose sole reader is benchmark/layers.go.
	TLBHits uint64
	// Always zero: compile shim whose sole reader is benchmark/layers.go.
	TLBMisses uint64
	// Always zero: compile shim whose sole reader is benchmark/layers.go.
	TLBInvalidations uint64
	// Checkpoints counts cubicle checkpoints captured at quiescent points;
	// CheckpointBytes sums their encoded image sizes.
	Checkpoints     uint64
	CheckpointBytes uint64
	// WarmRestarts counts supervisor restarts that restored the cubicle's
	// last good checkpoint; ColdRestarts counts restarts that rebuilt from
	// empty. Restarts == WarmRestarts + ColdRestarts.
	WarmRestarts uint64
	ColdRestarts uint64
	// Routes counts cluster balancer decisions that routed a request to
	// this system; Drains counts balancer health-ladder transitions for it
	// (drain + readmit, see Monitor.NoteDrain); Failovers counts requests
	// the balancer re-issued away from it (retry/hedge/drain).
	Routes    uint64
	Drains    uint64
	Failovers uint64
}

// newStats returns an initialised Stats.
func newStats() Stats {
	return Stats{Calls: make(map[Edge]uint64)}
}

// NewStats returns an empty, mergeable Stats (initialised maps) —
// accumulator seed for callers that Merge many monitors' counters, like
// the cluster driver's fleet-wide roll-up.
func NewStats() Stats { return newStats() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	*s = newStats()
}

// Counter is one row of the counter table: a scalar Stats counter, the
// name and help text every report shows it under, and the event that
// defines it — note bumps the row by one per Kind event, or by the event's
// Arg when Weighted.
type Counter struct {
	Name, Help string
	Kind       trace.Kind
	Weighted   bool
	Field      func(*Stats) *uint64
}

// Counters is the one declaration of every scalar counter. note bumps
// the rows through tables built from it, and Stats.Merge, CounterValues,
// cubicle-inspect and cubicle-trace (cubicleos_<Name>_total in its prom
// output) iterate it, so a new counter is one row here and one note
// where its event happens. Each kind defines at most one count and
// one Weighted row; call_exit, ipc and mark define none. The three TLB*
// shims are not rows: nothing increments them and no event defines them.
var Counters = [...]Counter{
	{"calls", "Cross-cubicle calls", trace.EvCallEnter, false, func(s *Stats) *uint64 { return &s.CallsTotal }},
	{"shared_calls", "Calls into shared cubicles", trace.EvSharedCall, false, func(s *Stats) *uint64 { return &s.SharedCalls }},
	{"faults", "Protection traps served by trap-and-map", trace.EvFault, false, func(s *Stats) *uint64 { return &s.Faults }},
	{"retags", "Pages retagged", trace.EvRetag, false, func(s *Stats) *uint64 { return &s.Retags }},
	{"wrpkrus", "Executed wrpkru instructions", trace.EvWRPKRU, false, func(s *Stats) *uint64 { return &s.WRPKRUs }},
	{"window_ops", "Window-management API calls", trace.EvWindowOp, false, func(s *Stats) *uint64 { return &s.WindowOps }},
	{"window_search_steps", "Window descriptor entries visited by the trap handler", trace.EvWindowSearch, true, func(s *Stats) *uint64 { return &s.WindowSearchSteps }},
	{"stack_bytes_copied", "In-stack argument bytes copied by trampolines", trace.EvCallEnter, true, func(s *Stats) *uint64 { return &s.StackBytesCopied }},
	{"bulk_bytes_copied", "Bytes moved by checked memcpy operations", trace.EvCopy, true, func(s *Stats) *uint64 { return &s.BulkBytesCopied }},
	{"denied_faults", "Protection traps no window authorised", trace.EvDeniedFault, false, func(s *Stats) *uint64 { return &s.DeniedFaults }},
	{"key_evictions", "MPK keys recycled by tag virtualisation", trace.EvKeyEviction, false, func(s *Stats) *uint64 { return &s.KeyEvictions }},
	{"contained_faults", "Faults contained at crossings", trace.EvContained, false, func(s *Stats) *uint64 { return &s.ContainedFaults }},
	{"quarantines", "Cubicles entering quarantine", trace.EvQuarantine, false, func(s *Stats) *uint64 { return &s.Quarantines }},
	{"restarts", "Supervisor restarts", trace.EvRestart, false, func(s *Stats) *uint64 { return &s.Restarts }},
	{"injected_faults", "Deterministic fault injections fired", trace.EvInjected, false, func(s *Stats) *uint64 { return &s.InjectedFaults }},
	{"sheds", "Requests refused by admission control", trace.EvShed, false, func(s *Stats) *uint64 { return &s.Sheds }},
	{"retries", "Bounded-retry attempts", trace.EvRetry, false, func(s *Stats) *uint64 { return &s.Retries }},
	{"tlb_shootdowns", "Cross-core retag synchronisation rounds", trace.EvShootdown, false, func(s *Stats) *uint64 { return &s.TLBShootdowns }},
	{"checkpoints", "Cubicle checkpoints captured", trace.EvCheckpoint, false, func(s *Stats) *uint64 { return &s.Checkpoints }},
	{"checkpoint_bytes", "Encoded bytes of captured checkpoints", trace.EvCheckpoint, true, func(s *Stats) *uint64 { return &s.CheckpointBytes }},
	{"warm_restarts", "Restarts restored from a checkpoint", trace.EvWarmRestart, false, func(s *Stats) *uint64 { return &s.WarmRestarts }},
	{"cold_restarts", "Restarts rebuilt from empty", trace.EvColdRestart, false, func(s *Stats) *uint64 { return &s.ColdRestarts }},
	{"routes", "Balancer decisions that routed a request here", trace.EvRoute, false, func(s *Stats) *uint64 { return &s.Routes }},
	{"drains", "Balancer drain and readmit transitions", trace.EvDrain, false, func(s *Stats) *uint64 { return &s.Drains }},
	{"failovers", "Requests the balancer re-issued elsewhere", trace.EvFailover, false, func(s *Stats) *uint64 { return &s.Failovers }},
}

// CounterValues maps each Counters row's name to its value in s — the
// counters section of cubicle-inspect's report and cubicle-trace's JSON.
func CounterValues(s *Stats) map[string]uint64 {
	out := make(map[string]uint64, len(Counters))
	for _, c := range Counters {
		out[c.Name] = *c.Field(s)
	}
	return out
}

// bindCounters builds note's table from Counters, once per monitor.
func (m *Monitor) bindCounters() {
	for k := range m.rows {
		m.rows[k].count = &m.sink
	}
	for _, c := range Counters {
		if c.Weighted {
			m.rows[c.Kind].weight = c.Field(&m.Stats)
		} else {
			m.rows[c.Kind].count = c.Field(&m.Stats)
		}
	}
}

// note is the one way an event happens in the monitor. It bumps the
// Counters rows k defines, the count row by one and the Weighted row by
// arg, and a crossing's per-edge call count; when tracing is on it appends
// the event to the ring, a crossing's as the call span's open. t is nil in
// monitor context; cub, other, arg, cost and name are the trace.Event
// fields, whose meaning varies by kind (see the trace.Kind constants).
func (m *Monitor) note(k trace.Kind, t *Thread, cub, other ID, arg, cost uint64, name string) {
	r := &m.rows[k]
	*r.count++
	if r.weight != nil {
		*r.weight += arg
	}
	if k == trace.EvCallEnter {
		m.Stats.Calls[Edge{From: cub, To: other}]++
	}
	if m.trc == nil {
		return
	}
	if k == trace.EvCallEnter {
		m.trc.CallEnter(tidOf(t), int(cub), int(other), name, arg)
		return
	}
	m.trc.Record(k, tidOf(t), int(cub), int(other), arg, cost, name)
}

// tidOf is the trace thread ID of t (-1 for monitor context).
func tidOf(t *Thread) int {
	if t == nil {
		return -1
	}
	return t.id
}

// Merge adds every counter of o into s, merging the per-edge call map.
// The sharded siege driver uses it to combine the per-core monitors'
// figures into one machine-wide view.
func (s *Stats) Merge(o *Stats) {
	for e, n := range o.Calls {
		s.Calls[e] += n
	}
	for _, c := range Counters {
		*c.Field(s) += *c.Field(o)
	}
}

// EdgeCount is one row of a call-count report.
type EdgeCount struct {
	From, To ID
	Count    uint64
}

// SortedEdges returns the call edges sorted by descending count (ties by
// edge), for stable Figure 5/8 reports.
func (s *Stats) SortedEdges() []EdgeCount {
	out := make([]EdgeCount, 0, len(s.Calls))
	for e, n := range s.Calls {
		out = append(out, EdgeCount{From: e.From, To: e.To, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
