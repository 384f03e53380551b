package cubicle

import "cubicleos/internal/trace"

// StatsFromTrace reconstructs the legacy Stats counters from a tracer's
// streaming event counts. Every Stats field the monitor maintains has a
// defining event (or event weight) in the trace, so for a run traced from
// boot the two views must agree exactly — the event stream is the single
// source of truth and Stats is a derived, always-on summary of it. Tests
// assert the equivalence over full workload runs.
//
// DeniedFaults is the only subtle mapping: a denied trap records both an
// EvFault (the trap was taken and paid for) and an EvDeniedFault, exactly
// mirroring how the monitor counts Stats.Faults on trap entry and
// Stats.DeniedFaults on rejection.
func StatsFromTrace(trc *trace.Tracer) Stats {
	c := trc.Counts()
	s := newStats()
	s.CallsTotal = c.CallsTotal
	s.SharedCalls = c.SharedCalls
	s.Faults = c.Faults
	s.DeniedFaults = c.DeniedFaults
	s.Retags = c.Retags
	s.WRPKRUs = c.WRPKRUs
	s.WindowOps = c.WindowOps
	s.WindowSearchSteps = c.WindowSearchSteps
	s.StackBytesCopied = c.StackBytesCopied
	s.BulkBytesCopied = c.BulkBytesCopied
	s.KeyEvictions = c.KeyEvictions
	s.ContainedFaults = c.ContainedFaults
	s.Quarantines = c.Quarantines
	s.Restarts = c.Restarts
	s.InjectedFaults = c.InjectedFaults
	s.Sheds = c.Sheds
	s.DeadlineFaults = c.DeadlineFaults
	s.QuotaFaults = c.QuotaFaults
	s.Retries = c.Retries
	s.TLBShootdowns = c.TLBShootdowns
	s.Checkpoints = c.Checkpoints
	s.CheckpointBytes = c.CheckpointBytes
	s.WarmRestarts = c.WarmRestarts
	s.ColdRestarts = c.ColdRestarts
	s.Routes = c.Routes
	s.Drains = c.Drains
	s.Failovers = c.Failovers
	for e, n := range c.Calls {
		s.Calls[Edge{From: ID(e.From), To: ID(e.To)}] = n
	}
	return s
}
