package cubicle

import "sort"

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
	// DeadlineFaults counts crossings or work quanta abandoned because the
	// request deadline had passed.
	DeadlineFaults uint64
	// QuotaFaults counts memory-quota refusals.
	QuotaFaults uint64
	// Retries counts bounded-retry attempts after transient contained
	// faults.
	Retries uint64
	// TLBShootdowns counts cross-core retag synchronisation rounds: on an
	// SMP machine every trap-and-map or pin retag pays one IPI round trip
	// per remote core (libmpk's per-thread sync). Always 0 on single-core
	// deployments.
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

// Merge adds every counter of o into s, merging the per-edge call map.
// The sharded siege driver uses it to combine the per-core monitors'
// figures into one machine-wide view.
func (s *Stats) Merge(o *Stats) {
	for e, n := range o.Calls {
		s.Calls[e] += n
	}
	s.CallsTotal += o.CallsTotal
	s.SharedCalls += o.SharedCalls
	s.Faults += o.Faults
	s.Retags += o.Retags
	s.WRPKRUs += o.WRPKRUs
	s.WindowOps += o.WindowOps
	s.WindowSearchSteps += o.WindowSearchSteps
	s.StackBytesCopied += o.StackBytesCopied
	s.BulkBytesCopied += o.BulkBytesCopied
	s.DeniedFaults += o.DeniedFaults
	s.KeyEvictions += o.KeyEvictions
	s.ContainedFaults += o.ContainedFaults
	s.Quarantines += o.Quarantines
	s.Restarts += o.Restarts
	s.InjectedFaults += o.InjectedFaults
	s.Sheds += o.Sheds
	s.DeadlineFaults += o.DeadlineFaults
	s.QuotaFaults += o.QuotaFaults
	s.Retries += o.Retries
	s.TLBShootdowns += o.TLBShootdowns
	s.Checkpoints += o.Checkpoints
	s.CheckpointBytes += o.CheckpointBytes
	s.WarmRestarts += o.WarmRestarts
	s.ColdRestarts += o.ColdRestarts
	s.Routes += o.Routes
	s.Drains += o.Drains
	s.Failovers += o.Failovers
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
