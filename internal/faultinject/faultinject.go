// Package faultinject provides deterministic, seeded fault injection for
// the cubicle runtime. An Injector implements cubicle.Injector: at each
// of the monitor's injection sites (crossing entry, window-management
// calls, trap-and-map retags) it draws one number from a splitmix64
// stream and compares it against the configured per-site probabilities.
// With a fixed seed and a deterministic workload, the exact sequence of
// injected faults is reproducible run to run — which is what lets the
// chaos siege test and the -chaos-seed CLI smoke assert hard invariants
// over a randomised failure schedule.
package faultinject

import (
	"strings"
	"sync"

	"cubicleos/internal/cubicle"
)

// Config selects the injection sites, their probabilities (each in
// [0, 1]) and the target filter. The crossing-site probabilities form a
// cumulative ladder over one draw, so their sum must stay ≤ 1.
type Config struct {
	// Seed initialises the PRNG stream.
	Seed uint64
	// Target restricts injection to cubicles whose name starts with this
	// prefix; empty targets every cubicle.
	Target string

	// Probabilities at cross-cubicle call entry.
	ProtAtCrossing   float64
	CFIAtCrossing    float64
	BudgetAtCrossing float64
	LeakAtCrossing   float64
	// Probability of a protection fault per window-management API call.
	ProtAtWindowOp float64
	// Probability of a protection fault per trap-and-map retag.
	ProtAtRetag float64

	// DropAtWire is the probability that a frame crossing the NETDEV wire
	// is lost in flight (consulted per frame, both directions — see
	// netdev.Wire.SetDropper). The Target filter does not apply: the wire
	// is hardware, not a cubicle.
	DropAtWire float64
	// KillAtRoute / SlowAtRoute are cluster failover sites, consulted by
	// the balancer per routing decision against the chosen backend: Kill
	// quarantines the backend's target cubicle (whole-backend crash from
	// the balancer's point of view), Slow degrades its compute for a
	// window. One draw decides via a cumulative ladder, so their sum must
	// stay ≤ 1.
	KillAtRoute float64
	SlowAtRoute float64
}

// RouteChaos is the decision of the per-route cluster site.
type RouteChaos uint8

const (
	// RouteNone fires nothing.
	RouteNone RouteChaos = iota
	// RouteKill crashes the routed-to backend (its target cubicle is
	// quarantined through the standard supervision ladder).
	RouteKill
	// RouteSlow degrades the routed-to backend's compute for a window.
	RouteSlow
)

// Injector is a deterministic cubicle.Injector. It starts disarmed so
// that boot wiring and provisioning run fault-free; call Arm when the
// workload under test begins. All methods are safe for concurrent use:
// a monitor is driven by one goroutine, but one Injector may be shared by
// the monitors of several shards, each on its own goroutine.
//
// Each decision stream is its own splitmix64 sequence, seeded as
// Seed ⊕ mix64(key): the monitor's three sites share stream 0
// (mix64(0) == 0, so it is the plain seeded stream), every wire and every
// routed-to backend has its own. Decisions on one stream therefore never
// shift another.
type Injector struct {
	mu     sync.Mutex
	cfg    Config
	states map[int]uint64
	armed  bool

	// Site counters: decisions drawn and injections fired, exposed for
	// tests and tooling.
	Crossings uint64
	WindowOps uint64
	Retags    uint64
	WireDraws uint64
	Routes    uint64
	Fired     uint64
}

// Stream keys: the monitor's sites draw from monitorKey; the wire and
// route families draw from one stream per wire or backend, offset so they
// never shift the monitor's stream (and vice versa) — chaos schedules stay
// reproducible when the sites interleave differently run to run.
const (
	monitorKey   = 0
	wireKeyBase  = 1 << 20
	routeKeyBase = 2 << 20
)

// New returns a disarmed injector for the given config.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, states: make(map[int]uint64)}
}

// mix64 is the splitmix64 output permutation, used to derive per-key
// stream seeds. mix64(0) == 0 by construction.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Arm enables injection.
func (j *Injector) Arm() {
	j.mu.Lock()
	j.armed = true
	j.mu.Unlock()
}

// Disarm disables injection without disturbing the PRNG stream position.
func (j *Injector) Disarm() {
	j.mu.Lock()
	j.armed = false
	j.mu.Unlock()
}

// Armed reports whether injection is enabled.
func (j *Injector) Armed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.armed
}

// next advances key's splitmix64 stream, creating it on first use.
func (j *Injector) next(key int) uint64 {
	st, ok := j.states[key]
	if !ok {
		st = (j.cfg.Seed ^ 0x9e3779b97f4a7c15) ^ mix64(uint64(key))
	}
	st += 0x9e3779b97f4a7c15
	j.states[key] = st
	return mix64(st)
}

// draw returns a uniform float64 in [0, 1) from key's stream.
func (j *Injector) draw(key int) float64 {
	return float64(j.next(key)>>11) / (1 << 53)
}

func (j *Injector) match(name string) bool {
	return j.cfg.Target == "" || strings.HasPrefix(name, j.cfg.Target)
}

// AtCrossing implements cubicle.Injector. One draw decides among the four
// crossing fault kinds via a cumulative probability ladder; sites that do
// not match the target filter consume no draw, so narrowing the target
// does not shift the decision stream of the targeted cubicle.
func (j *Injector) AtCrossing(callee, symbol string) cubicle.InjectKind {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.armed || !j.match(callee) {
		return cubicle.InjectNone
	}
	j.Crossings++
	u := j.draw(monitorKey)
	p := j.cfg.ProtAtCrossing
	if u < p {
		j.Fired++
		return cubicle.InjectProt
	}
	p += j.cfg.CFIAtCrossing
	if u < p {
		j.Fired++
		return cubicle.InjectCFI
	}
	p += j.cfg.BudgetAtCrossing
	if u < p {
		j.Fired++
		return cubicle.InjectBudget
	}
	p += j.cfg.LeakAtCrossing
	if u < p {
		j.Fired++
		return cubicle.InjectLeak
	}
	return cubicle.InjectNone
}

// AtWindowOp implements cubicle.Injector.
func (j *Injector) AtWindowOp(owner, op string) cubicle.InjectKind {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.armed || !j.match(owner) || j.cfg.ProtAtWindowOp <= 0 {
		return cubicle.InjectNone
	}
	j.WindowOps++
	if j.draw(monitorKey) < j.cfg.ProtAtWindowOp {
		j.Fired++
		return cubicle.InjectProt
	}
	return cubicle.InjectNone
}

// AtWire decides whether one frame crossing the NETDEV wire is lost in
// flight. key identifies the wire's decision stream — the backend index
// in a cluster, 0 for a standalone system — so each backend's drop
// schedule is independent of the others' traffic. Consumes no draw while
// disarmed or with DropAtWire unset, so arming packet loss never shifts
// the other sites' streams.
func (j *Injector) AtWire(key int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.armed || j.cfg.DropAtWire <= 0 {
		return false
	}
	j.WireDraws++
	if j.draw(wireKeyBase+key) < j.cfg.DropAtWire {
		j.Fired++
		return true
	}
	return false
}

// AtRoute decides, per balancer routing decision, whether chaos strikes
// the chosen backend: one draw over the KillAtRoute/SlowAtRoute ladder.
// backend keys the decision stream, so each backend's kill/slow schedule
// depends only on how many requests were routed to it.
func (j *Injector) AtRoute(backend int) RouteChaos {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.armed || (j.cfg.KillAtRoute <= 0 && j.cfg.SlowAtRoute <= 0) {
		return RouteNone
	}
	j.Routes++
	u := j.draw(routeKeyBase + backend)
	p := j.cfg.KillAtRoute
	if u < p {
		j.Fired++
		return RouteKill
	}
	p += j.cfg.SlowAtRoute
	if u < p {
		j.Fired++
		return RouteSlow
	}
	return RouteNone
}

// AtRetag implements cubicle.Injector.
func (j *Injector) AtRetag(cub string) cubicle.InjectKind {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.armed || !j.match(cub) || j.cfg.ProtAtRetag <= 0 {
		return cubicle.InjectNone
	}
	j.Retags++
	if j.draw(monitorKey) < j.cfg.ProtAtRetag {
		j.Fired++
		return cubicle.InjectProt
	}
	return cubicle.InjectNone
}
