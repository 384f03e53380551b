// Parallel open-loop driving: the offered load is sharded across N
// simulated cores, each shard a fully independent booted system (its own
// monitor, clock, server and wire — nothing shared, so per-shard
// behaviour is byte-identical to a single-core run at the shard's rate).
// Real goroutine workers step the shards concurrently under the sharded
// scheduler's quantum barriers, with a cycles.Machine computing global
// virtual time over the shard clocks. Virtual-time figures are therefore
// deterministic for a fixed configuration, while wall-clock throughput
// scales with the worker count — the simulator's analogue of running one
// NGINX deployment per core behind a load balancer.

package siege

import (
	"fmt"
	"time"

	"cubicleos/internal/cycles"
	"cubicleos/internal/uksched"
)

// ParallelQuantum is the virtual-cycle length of one scheduler quantum in
// the parallel driver: each shard steps until its clock passes the
// current GVT plus this, then yields to the barrier.
const ParallelQuantum = 2_000_000

// ParallelStats is the merged result of a sharded open-loop run.
type ParallelStats struct {
	// OpenLoopStats holds the machine-wide virtual-time figures: counters
	// and MaxConns/ArenaBytes are summed across shards, latency
	// percentiles are computed over the pooled per-request latencies, and
	// Elapsed/GoodputRPS use the longest shard span (the shards run
	// concurrently in virtual time).
	OpenLoopStats
	// Cores is the number of shards (= worker goroutines).
	Cores int
	// PerCore are the individual shard results.
	PerCore []*OpenLoopStats
	// GVT is global virtual time over the shard clocks at completion.
	GVT uint64
	// Quanta is how many barrier-delimited quanta the run took.
	Quanta uint64
	// WallSeconds is host wall-clock time spent driving the shards
	// (provisioning/boot excluded); WallRPS is completed 200s per host
	// second — the figure that shows wall-clock scaling.
	WallSeconds float64
	WallRPS     float64
}

// ParallelOpenLoop shards o across cores: shard c is booted by mk(c),
// receives Rate/cores of the offered load and an equal share of the
// arrivals (remainder spread over the lowest cores), and is stepped by
// its own worker goroutine in GVT quanta until every shard finishes.
func ParallelOpenLoop(cores int, mk func(core int) (*Target, error), o OpenLoopOptions) (*ParallelStats, error) {
	if cores < 1 {
		cores = 1
	}
	if o.Rate <= 0 || o.Requests <= 0 {
		return nil, fmt.Errorf("siege: open loop needs positive rate and request count")
	}

	runs := make([]*OpenLoopDriver, cores)
	clks := make([]*cycles.Clock, cores)
	base, rem := o.Requests/cores, o.Requests%cores
	for c := 0; c < cores; c++ {
		t, err := mk(c)
		if err != nil {
			return nil, fmt.Errorf("siege: parallel boot of shard %d: %w", c, err)
		}
		so := o
		so.Rate = o.Rate / float64(cores)
		so.Requests = base
		if c < rem {
			so.Requests++
		}
		clks[c] = t.Sys.M.Clock
		if so.Requests == 0 {
			// More cores than requests: the shard idles. Its clock keeps
			// the core count honest, but there is no run to step.
			continue
		}
		if runs[c], err = t.StartOpenLoop(so); err != nil {
			return nil, err
		}
	}

	machine := cycles.MachineOver(clks...)
	smp := uksched.NewSMP(cores)
	smp.Machine = machine
	for c := 0; c < cores; c++ {
		if runs[c] == nil {
			continue
		}
		r := runs[c]
		clk := clks[c]
		smp.AddFunc(c, fmt.Sprintf("siege-shard-%d", c), func() uksched.Status {
			// One quantum: step until the shard's clock passes the bound
			// set at the last barrier. GVT is stable between barriers, so
			// every worker computes the same bound.
			bound := machine.GVT() + ParallelQuantum
			for clk.Cycles() < bound {
				if !r.step() {
					return uksched.Done
				}
			}
			return uksched.Yield
		})
	}

	wallStart := time.Now()
	if !smp.Run(2) {
		return nil, fmt.Errorf("siege: parallel shards stalled: %v", smp.Blocked())
	}
	wall := time.Since(wallStart)

	ps := &ParallelStats{Cores: cores, GVT: machine.Barrier(), Quanta: smp.Quanta}
	ps.OfferedRPS = o.Rate
	var lats []uint64
	var maxElapsed uint64
	for _, r := range runs {
		if r == nil {
			continue
		}
		st := r.Finish()
		ps.PerCore = append(ps.PerCore, st)
		ps.Arrivals += st.Arrivals
		ps.OK += st.OK
		ps.Shed += st.Shed
		ps.Errors += st.Errors
		ps.Dropped += st.Dropped
		ps.MaxConns += st.MaxConns
		ps.ArenaBytes += st.ArenaBytes
		maxElapsed = max(maxElapsed, r.elapsed)
		lats = append(lats, r.lats...)
	}
	ps.LatencySummary = Summarise(lats, ps.OK, maxElapsed)
	ps.WallSeconds = wall.Seconds()
	if ps.WallSeconds > 0 {
		ps.WallRPS = float64(ps.OK) / ps.WallSeconds
	}
	return ps, nil
}
