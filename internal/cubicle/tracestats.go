package cubicle

import "cubicleos/internal/trace"

// StatsFromTrace reconstructs the legacy Stats counters from a tracer's
// streaming event counts. Every Stats field the monitor maintains has a
// defining event (or event weight) in the trace, named by its Counters
// row, so for a run traced from boot the two views must agree exactly —
// the event stream is the single source of truth and Stats is a derived,
// always-on summary of it. Tests assert the equivalence over full
// workload runs.
//
// DeniedFaults is the only subtle mapping: a denied trap records both an
// EvFault (the trap was taken and paid for) and an EvDeniedFault, exactly
// mirroring how the monitor counts Stats.Faults on trap entry and
// Stats.DeniedFaults on rejection.
func StatsFromTrace(trc *trace.Tracer) Stats {
	s := newStats()
	for _, c := range Counters {
		if c.Weighted {
			*c.Field(&s) = trc.Weight(c.Kind)
		} else {
			*c.Field(&s) = trc.Count(c.Kind)
		}
	}
	for e, n := range trc.EdgeCalls() {
		s.Calls[Edge{From: ID(e.From), To: ID(e.To)}] = n
	}
	return s
}
