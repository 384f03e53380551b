// Parallel open-loop driving: the offered load is sharded across N
// simulated cores, each shard a fully independent booted system (its own
// monitor, clock, server and wire — nothing shared, so per-shard
// behaviour is byte-identical to a single-core run at the shard's rate).
// Each shard steps to completion on its own goroutine and one WaitGroup
// joins them before any result is read: since no shard reads another's
// state, there is nothing to synchronise in between. Virtual-time figures
// are therefore deterministic for a fixed configuration, while wall-clock
// throughput scales with the host's cores — the simulator's analogue of
// running one NGINX deployment per core behind a load balancer.

package siege

import (
	"fmt"
	"sync"
	"time"
)

// ParallelStats is the merged result of a sharded open-loop run.
type ParallelStats struct {
	// OpenLoopStats holds the machine-wide virtual-time figures: counters
	// and MaxConns/ArenaBytes are summed across shards, latency
	// percentiles are computed over the pooled per-request latencies, and
	// Elapsed/GoodputRPS use the longest shard span (the shards run
	// concurrently in virtual time).
	OpenLoopStats
	// Cores is the number of simulated cores the load was split over.
	Cores int
	// PerCore are the individual shard results, one per core that had an
	// arrival to serve (min(Cores, Requests) of them).
	PerCore []*OpenLoopStats
	// WallSeconds is host wall-clock time spent driving the shards
	// (provisioning/boot excluded); WallRPS is completed 200s per host
	// second — the figure that shows wall-clock scaling.
	WallSeconds float64
	WallRPS     float64
}

// ParallelOpenLoop shards o across cores: shard c is booted by mk(c),
// receives Rate/cores of the offered load and an equal share of the
// arrivals (remainder spread over the lowest cores), and is stepped to
// completion by its own goroutine. A core without an arrival to serve
// boots no shard.
func ParallelOpenLoop(cores int, mk func(core int) (*Target, error), o OpenLoopOptions) (*ParallelStats, error) {
	cores = max(cores, 1)
	if err := CheckOpenLoop(o.Rate, o.Requests); err != nil {
		return nil, err
	}

	runs := make([]*OpenLoopDriver, min(cores, o.Requests))
	base, rem := o.Requests/cores, o.Requests%cores
	for c := range runs {
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
		if runs[c], err = t.StartOpenLoop(so); err != nil {
			return nil, err
		}
	}

	wallStart := time.Now()
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.step() {
			}
		}()
	}
	wg.Wait()
	wall := time.Since(wallStart)

	ps := &ParallelStats{Cores: cores}
	ps.OfferedRPS = o.Rate
	var lats []uint64
	var maxElapsed uint64
	for _, r := range runs {
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
