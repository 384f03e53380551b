// Package cluster promotes the single-system siege into a virtual
// cluster: N booted CubicleOS deployments behind a simulated L4/L7
// balancer. Each backend's health is fed by its own supervisor ladder
// (Healthy → Quarantined → Dead) through the monitor's health hook; the
// balancer drains sick backends with a virtual-clock deadline, probes
// them back to life, and re-admits them once their cubicles recover —
// typically via a warm (checkpoint-restored) restart. Per-request
// retries and hedges are bounded by a retry budget so an overloaded
// fleet is never amplified, and routing failures surface as a typed
// *RouteFault.
//
// Everything runs on virtual clocks in one goroutine: the driver
// advances cluster time in fixed quanta and steps every backend until
// it waits for input, then moves its local clock up to the cluster's,
// which is what makes a chaos-laden failover run bit-identical for a
// fixed seed.
package cluster

import (
	"errors"
	"fmt"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/httpd"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/siege"
)

// RoutePolicy names the balancer's routing policy: the eligible backend
// with the fewest in-flight requests, ties broken by lowest index. Route
// events, route faults and the fleet view carry it.
const RoutePolicy = "least-loaded"

// Action is a scripted failover event kind.
type Action int

const (
	// ActKill quarantines the backend's RAMFS through the standard
	// supervision ladder — a whole-backend crash from the balancer's
	// point of view, recoverable by a (warm) restart.
	ActKill Action = iota
	// ActSlow scales the backend's compute cost for a window.
	ActSlow
)

// Event is one scripted chaos event on the cluster clock.
type Event struct {
	AtCycle uint64
	Backend int
	Action  Action
	// Factor multiplies the slowed backend's work scale (ActSlow).
	Factor float64
	// Window is how long the slowdown lasts in cycles (ActSlow).
	Window uint64
}

// ErrKilled is the quarantine cause recorded by scripted backend kills.
var ErrKilled = errors.New("cluster: scripted backend kill")

// Options configures a cluster boot.
type Options struct {
	// Backends is the fleet size (default 2).
	Backends int
	// Mode is each backend's isolation mode.
	Mode cubicle.Mode
	// Seed is read by nothing: routing is least-loaded and the backends'
	// chaos streams take Chaos.Seed. The benchmark module still sets it.
	Seed uint64

	// RetryBudget caps retries+hedges as a fraction of arrivals so the
	// balancer never amplifies an overloaded fleet (default 0.1).
	RetryBudget float64
	// HedgeAfter, when non-zero, issues a hedged duplicate to a second
	// backend once a request has waited this many cycles unanswered.
	HedgeAfter uint64

	// Per-backend boot knobs, passed through to siege.NewTargetOpts.
	Governance         *httpd.Governance
	CheckpointInterval uint64
	Chaos              *faultinject.Config
	ReapClosed         bool
	TraceEvents        int

	// Script is the failover scenario on the cluster clock.
	Script []Event
}

// The balancer's tuning: every run takes these.
const (
	// maxAttempts bounds legs issued per request: first try plus
	// retries plus hedges.
	maxAttempts = 3
	// backoffBase, backoffFactor and backoffMax shape the exponential
	// virtual-clock backoff between retry legs.
	backoffBase   = 2_000_000
	backoffFactor = 2
	backoffMax    = 32_000_000
	// defaultRetryBudget is Options.RetryBudget's zero value.
	defaultRetryBudget = 0.1
	// requestTimeout abandons a leg unanswered for this many cycles
	// (≈ 36 ms at 2.2 GHz).
	requestTimeout = 80_000_000
	// drainDeadline is how long a drained backend sits out before the
	// balancer probes it for re-admission.
	drainDeadline = 30_000_000
)

// Backend is one cluster member: a booted system plus the balancer's
// view of it.
type Backend struct {
	T     *siege.Target
	Index int

	// sick maps cubicle name → health for every currently unhealthy
	// cubicle, maintained by the monitor's health hook. The backend is
	// eligible for routing only while this is empty and it is not
	// sitting out a drain window.
	sick map[string]cubicle.Health

	draining   bool
	drainUntil uint64 // cluster cycle after which the probe goes out
	probe      *leg   // in-flight re-admission probe, nil when none

	slowUntil uint64 // cluster cycle the scripted slowdown ends

	inflight int
	pool     []*siege.KAConn

	// Balancer-side counters for this backend.
	Routed, OK, Shed, Errors, Dropped uint64
	Drains, Readmits                  uint64
}

// dead reports whether any of the backend's cubicles exhausted its
// restart budget — the backend never comes back.
func (b *Backend) dead() bool {
	for _, h := range b.sick {
		if h == cubicle.Dead {
			return true
		}
	}
	return false
}

// eligible reports whether the balancer may route new requests here.
func (b *Backend) eligible() bool {
	return len(b.sick) == 0 && !b.draining
}

// Health names the backend's current balancer-visible state.
func (b *Backend) Health() string {
	switch {
	case b.dead():
		return "dead"
	case b.draining:
		return "draining"
	case len(b.sick) > 0:
		return "sick"
	default:
		return "healthy"
	}
}

// acquire pops a reusable keep-alive connection from the backend's pool
// or dials a fresh one.
func (b *Backend) acquire() *siege.KAConn {
	for n := len(b.pool); n > 0; n = len(b.pool) {
		k := b.pool[n-1]
		b.pool = b.pool[:n-1]
		if !k.Conn.FinRcvd && !k.SawClose {
			return k
		}
	}
	return b.T.OpenKA()
}

// release returns a still-usable connection to the pool.
func (b *Backend) release(k *siege.KAConn) {
	if !k.Conn.FinRcvd && !k.SawClose {
		b.pool = append(b.pool, k)
	}
}

// Cluster is the booted fleet plus balancer state.
type Cluster struct {
	O        Options
	Backends []*Backend

	chaos *faultinject.Injector // cluster-level route-chaos stream

	now uint64 // cluster virtual time

	// Fleet-level counters.
	Retries, Hedges, HedgeWins uint64
	Failovers                  uint64
	Drains, Readmits           uint64
	RouteFaults                uint64
}

// New boots a fleet of Options.Backends systems. Chaos injectors (per
// backend and the cluster-level route stream) boot disarmed; call Arm
// once provisioning is done.
func New(o Options) (*Cluster, error) {
	if o.Backends == 0 {
		o.Backends = 2
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = defaultRetryBudget
	}
	c := &Cluster{O: o}
	restart := cubicle.DefaultRestartPolicy()
	// The siege-tuned default quarantine backoff (~100k cycles) would let
	// a killed backend restart under the very next in-flight request,
	// before the balancer ever observes the drain. Cluster recovery is
	// owned by the drain window: quarantine long enough that the
	// re-admission probe — not ambient traffic — performs the restart.
	restart.BackoffBase = 8_000_000
	for i := 0; i < o.Backends; i++ {
		rp := restart
		t, err := siege.NewTargetOpts(siege.Options{
			Mode:               o.Mode,
			Supervision:        &rp,
			Governance:         o.Governance,
			CheckpointInterval: o.CheckpointInterval,
			Chaos:              o.Chaos,
			ReapClosed:         o.ReapClosed,
			TraceEvents:        o.TraceEvents,
			Cluster:            i,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: backend %d: %w", i, err)
		}
		b := &Backend{T: t, Index: i, sick: make(map[string]cubicle.Health)}
		t.Sys.M.SetHealthHook(func(name string, _ cubicle.ID, _, to cubicle.Health) {
			// Record-only: the driver reconciles drains/re-admissions
			// between quanta.
			if to == cubicle.Healthy {
				delete(b.sick, name)
			} else {
				b.sick[name] = to
			}
		})
		c.Backends = append(c.Backends, b)
	}
	if o.Chaos != nil {
		c.chaos = faultinject.New(*o.Chaos)
	}
	return c, nil
}

// PutFile provisions the same static file on every backend.
func (c *Cluster) PutFile(path string, data []byte) error {
	for _, b := range c.Backends {
		if err := b.T.PutFile(path, data); err != nil {
			return fmt.Errorf("cluster: backend %d: %w", b.Index, err)
		}
	}
	return nil
}

// Arm enables chaos injection fleet-wide (per-backend injectors and the
// balancer's route-chaos stream).
func (c *Cluster) Arm() {
	for _, b := range c.Backends {
		if inj := b.T.Sys.Chaos; inj != nil {
			inj.Arm()
		}
	}
	if c.chaos != nil {
		c.chaos.Arm()
	}
}

// Kill crashes a backend through the supervision ladder: its RAMFS is
// quarantined, so every request needing the file system fails contained
// until the supervisor restarts it (warm when a checkpoint exists).
func (c *Cluster) Kill(backend int) bool {
	b := c.Backends[backend]
	sup := b.T.Sys.Sup
	if sup == nil {
		return false
	}
	return sup.Kill(ramfs.Name, ErrKilled)
}

// Slow scales a backend's compute cost by factor for window cycles of
// cluster time.
func (c *Cluster) Slow(backend int, factor float64, window uint64) {
	b := c.Backends[backend]
	if factor <= 0 {
		factor = 4
	}
	b.T.Sys.M.Clock.SetWorkScale(boot.UnikraftWorkScale * factor)
	b.slowUntil = c.now + window
}

// processScript fires scripted events due at or before the current
// cluster cycle, and ends elapsed slow windows.
func (c *Cluster) processScript(fired *int) {
	for *fired < len(c.O.Script) && c.O.Script[*fired].AtCycle <= c.now {
		ev := c.O.Script[*fired]
		*fired++
		if ev.Backend < 0 || ev.Backend >= len(c.Backends) {
			continue
		}
		switch ev.Action {
		case ActKill:
			c.Kill(ev.Backend)
		case ActSlow:
			c.Slow(ev.Backend, ev.Factor, ev.Window)
		}
	}
	for _, b := range c.Backends {
		if b.slowUntil != 0 && c.now >= b.slowUntil {
			b.T.Sys.M.Clock.SetWorkScale(boot.UnikraftWorkScale)
			b.slowUntil = 0
		}
	}
}

// RouteFault reports that the balancer found no backend eligible for a
// request — the typed "whole fleet is down or draining" error.
type RouteFault struct {
	Healthy  int
	Draining int
	Dead     int
}

func (f *RouteFault) Error() string {
	return fmt.Sprintf("cluster: no eligible backend (policy %s: %d healthy, %d draining, %d dead)",
		RoutePolicy, f.Healthy, f.Draining, f.Dead)
}
