// The balancer: least-loaded routing over the fleet's health view. It is
// a pure function of (inflight counts, health), so a run's routing
// decisions are deterministic for a fixed seed.

package cluster

import "cubicleos/internal/faultinject"

// routeFault builds the typed no-eligible-backend error from the
// fleet's current health census.
func (c *Cluster) routeFault() *RouteFault {
	f := &RouteFault{}
	for _, b := range c.Backends {
		switch {
		case b.dead():
			f.Dead++
		case b.eligible():
			f.Healthy++
		default:
			f.Draining++
		}
	}
	return f
}

// route picks the eligible backend with the fewest in-flight requests,
// excluding one index (a failed or already-hedged backend; -1 excludes
// none). When only the excluded backend is eligible it is used anyway —
// a degraded answer beats none.
func (c *Cluster) route(exclude int) (int, *RouteFault) {
	pick, fallback := -1, -1
	for i, b := range c.Backends {
		if !b.eligible() {
			continue
		}
		if i == exclude {
			fallback = i
			continue
		}
		if pick < 0 || b.inflight < c.Backends[pick].inflight {
			pick = i
		}
	}
	if pick < 0 {
		pick = fallback
	}
	if pick < 0 {
		c.RouteFaults++
		return -1, c.routeFault()
	}
	return pick, nil
}

// Route is the public routing decision: it picks a backend, records the
// decision on the chosen backend's monitor (EvRoute), fires the
// route-chaos site against it, and bumps the balancer gauges. The attempt
// number distinguishes first tries from retry/hedge legs.
func (c *Cluster) Route(attempt int, exclude int) (int, error) {
	idx, rf := c.route(exclude)
	if rf != nil {
		return -1, rf
	}
	b := c.Backends[idx]
	b.Routed++
	b.T.Sys.M.NoteRoute(RoutePolicy, idx, uint64(attempt))
	if c.chaos != nil {
		switch c.chaos.AtRoute(idx) {
		case faultinject.RouteKill:
			c.Kill(idx)
		case faultinject.RouteSlow:
			c.Slow(idx, 4, drainDeadline)
		}
	}
	return idx, nil
}
