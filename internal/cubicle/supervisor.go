package cubicle

import (
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// RestartPolicy parameterises the supervisor. All durations are virtual
// cycles on the monitor's clock, so supervision decisions are
// deterministic for a given workload.
type RestartPolicy struct {
	// MaxRestarts is how many restarts a cubicle may consume within
	// RestartWindow before it is declared Dead (0 = unlimited).
	MaxRestarts int
	// RestartWindow is the sliding virtual-time window the restart budget
	// applies to.
	RestartWindow uint64
	// BackoffBase is the quarantine backoff after a first fault; each
	// consecutive fault multiplies it by BackoffFactor up to BackoffMax.
	BackoffBase   uint64
	BackoffFactor uint64
	BackoffMax    uint64
	// RestartCost is charged to the virtual clock per restart: tearing
	// down and re-mapping a cubicle's heap, stacks and windows is not free.
	RestartCost uint64
	// CrossingBudget, when non-zero, is the watchdog's per-crossing cycle
	// budget: a callee that consumes more virtual cycles than this inside
	// one crossing raises a BudgetFault.
	CrossingBudget uint64
}

// DefaultRestartPolicy returns a policy tuned for the siege workload:
// short backoffs relative to a request (~6M cycles), a one-virtual-second
// restart window, and the watchdog disabled.
func DefaultRestartPolicy() RestartPolicy {
	return RestartPolicy{
		MaxRestarts:    8,
		RestartWindow:  2_200_000_000, // one virtual second at 2.2 GHz
		BackoffBase:    100_000,
		BackoffFactor:  2,
		BackoffMax:     50_000_000,
		RestartCost:    1_000_000,
		CrossingBudget: 0,
	}
}

// undoKind says how to undo one journalled window-state change.
type undoKind uint8

const (
	undoDestroyWindow undoKind = iota // window was created: destroy it
	undoCloseWindow                   // window was opened for grantee: close it
	undoUnpinWindow                   // window was pinned: release its key
)

// undoEntry is one entry of a thread's containment journal: a window-state
// change made since the innermost supervised crossing, to be rolled back
// if the crossing faults. Entries are recorded only while a supervisor is
// attached.
type undoEntry struct {
	kind    undoKind
	owner   ID
	wid     WID
	grantee ID
}

// Supervisor is the per-monitor fault-domain manager: it contains faults
// at crossings, quarantines and restarts faulting cubicles, and enforces
// the watchdog budget. Attach one with Monitor.EnableContainment.
type Supervisor struct {
	m      *Monitor
	policy RestartPolicy
}

// EnableContainment attaches a supervisor with the given restart policy.
// Like tracing, containment is opt-in: without it the monitor keeps the
// seed behaviour of unwinding every fault to the outermost Catch.
func (m *Monitor) EnableContainment(policy RestartPolicy) *Supervisor {
	s := &Supervisor{m: m, policy: policy}
	m.sup = s
	return s
}

// admit gates a cross-cubicle call on the callee's health before any call
// accounting happens. Quarantined cubicles whose backoff expired are
// restarted in place; otherwise the call is refused with a fail-fast
// ContainedFault.
func (s *Supervisor) admit(t *Thread, tr *Trampoline) {
	s.watchdog(t) // the caller itself may have overrun its crossing budget
	c := tr.cub
	if c.health == Healthy { // the fast path: one load
		return
	}
	m := s.m
	switch c.health {
	case Quarantined:
		if m.Clock.Cycles() >= c.restartAt && s.restart(c) {
			return
		}
		if c.health == Dead { // the refused restart exhausted the budget
			s.refuse(t, tr, ErrDead)
		}
		s.refuse(t, tr, ErrQuarantined)
	case Dead:
		s.refuse(t, tr, ErrDead)
	}
}

// refuse fails a call fast with a ContainedFault before it crosses into
// the unhealthy callee.
func (s *Supervisor) refuse(t *Thread, tr *Trampoline, cause error) {
	s.m.note(trace.EvContained, t, tr.callee, t.cur, 0, 0, faultClass(cause))
	panic(&ContainedFault{Cubicle: tr.callee, Symbol: tr.Symbol(), Cause: cause})
}

// contain is deferred around the callee invocation of every supervised
// crossing, after the frame-restoring popFrame defer (so it runs first,
// while the crossing frame is still live). It recovers isolation faults
// raised by the callee, rolls back the faulted call's window-state
// changes, quarantines the faulting cubicle, and converts the panic into
// a typed ContainedFault delivered to the caller. Foreign panics (plain
// Go bugs) pass through untouched.
func (s *Supervisor) contain(t *Thread, tr *Trampoline) {
	r := recover()
	if r == nil {
		// A healthy return clears the callee's consecutive-fault streak so
		// backoff escalation only tracks back-to-back failures.
		if c := tr.cub; c.consecFaults != 0 && c.health == Healthy {
			c.consecFaults = 0
		}
		return
	}
	m := s.m
	f := &t.frames[len(t.frames)-1]
	jmark := f.jmark
	if cf, ok := r.(*ContainedFault); ok {
		// A deeper supervised crossing already contained this fault.
		// Journal entries recorded during the aborted span are discarded
		// without undoing: they belong to cubicles whose execution was
		// aborted along with the callee, and windows are persistent state
		// those cubicles reconcile on their next entry.
		t.journal = t.journal[:jmark]
		if m.trc != nil {
			m.trc.CallExit(t.id, int(f.caller), int(tr.callee), tr.Symbol())
		}
		panic(cf)
	}
	cause, ok := AsFault(r)
	if !ok {
		panic(r) // not an isolation fault; do not contain Go bugs
	}
	// Quota and deadline faults are transient overload conditions, not
	// component bugs: the crossing is rolled back and the typed error
	// delivered, but the callee stays Healthy — quarantining ALLOC because
	// a client hit its arena cap would turn load shedding into an outage.
	victim := tr.callee
	transient := false
	switch q := cause.(type) {
	case *QuotaFault:
		victim = q.Cubicle // attribute to the cubicle whose quota ran out
		transient = true
	case *DeadlineFault:
		transient = true
	}
	s.rollback(t, jmark, tr.callee)
	if !transient {
		s.quarantine(victim, cause)
	}
	m.note(trace.EvContained, t, victim, f.caller, 0, 0, faultClass(cause))
	if m.trc != nil {
		// Close the call span the aborted crossing left open so B/E events
		// stay balanced and elapsed attribution survives the unwind.
		m.trc.CallExit(t.id, int(f.caller), int(victim), tr.Symbol())
	}
	panic(&ContainedFault{Cubicle: victim, Symbol: tr.Symbol(), Cause: cause})
}

// rollback undoes, newest first, every journalled window-state change the
// faulted crossing made on behalf of the victim cubicle. Changes owned by
// other cubicles within the span are committed state and stay.
func (s *Supervisor) rollback(t *Thread, jmark int, victim ID) {
	m := s.m
	for i := len(t.journal) - 1; i >= jmark; i-- {
		u := t.journal[i]
		if u.owner != victim {
			continue
		}
		cub := m.cubicleIfValid(u.owner)
		if cub == nil || int(u.wid) >= len(cub.windows) || cub.windows[u.wid] == nil {
			continue
		}
		w := cub.windows[u.wid]
		switch u.kind {
		case undoCloseWindow:
			w.Open &^= 1 << uint(u.grantee)
			if w.pinned != noPin {
				m.refreshThreadPKRUs()
			}
		case undoUnpinWindow:
			if w.pinned != noPin {
				s.m.stripPin(nil, w)
			}
		case undoDestroyWindow:
			s.destroyWindow(cub, w)
		}
	}
	t.journal = t.journal[:jmark]
}

// destroyWindow removes a window without going through the chargeable
// untrusted API: the supervisor acts as the monitor here, so no window-op
// cost or event is recorded (retags of pinned pages still are).
func (s *Supervisor) destroyWindow(cub *Cubicle, w *Window) {
	if w.pinned != noPin {
		s.m.stripPin(nil, w)
	}
	s.m.dropWindow(cub, w)
}

// quarantine moves an isolated cubicle into the Quarantined state with an
// exponential backoff on the virtual clock. Shared and trusted cubicles
// are never quarantined: shared code executes as its caller, and a
// trusted-cubicle fault is a runtime bug.
func (s *Supervisor) quarantine(id ID, cause error) {
	c := s.m.cubicleIfValid(id)
	if c == nil || c.Kind != KindIsolated {
		return
	}
	c.lastFault = cause
	c.consecFaults++
	if c.health == Dead {
		return
	}
	p := s.policy
	backoff := Backoff(p.BackoffBase, p.BackoffFactor, p.BackoffMax, int(c.consecFaults))
	old := c.health
	c.health = Quarantined
	c.restartAt = s.m.Clock.Cycles() + backoff
	s.m.note(trace.EvQuarantine, nil, id, 0, backoff, 0, "")
	s.m.notifyHealth(c, old, Quarantined)
}

// Backoff is the capped exponential backoff before try n+1 (n >= 1):
// base * factor^(n-1), capped at max (0 = no cap) without overflowing. A
// factor below 2 keeps every backoff at base. The supervisor's quarantine
// backoff, RetryContained's retry backoff and the cluster's retry-leg
// backoff all take it.
func Backoff(base, factor, max uint64, n int) uint64 {
	b := base
	if factor > 1 {
		for i := 1; i < n; i++ {
			if max > 0 && b >= max/factor {
				return max
			}
			b *= factor
		}
	}
	if max > 0 && b > max {
		b = max
	}
	return b
}

// restart reinitialises a quarantined cubicle: its restart budget is
// checked against the policy window, its windows are destroyed, its heap
// and stack pages unmapped and the sub-allocator replaced (the loader's
// lazy per-cubicle setup re-runs on next use), and its components'
// OnRestart hooks rebuild their Go-side state. Returns false — leaving
// the cubicle Quarantined or moving it to Dead — when the restart cannot
// or may not happen.
func (s *Supervisor) restart(c *Cubicle) bool {
	m := s.m
	// Never yank state from under a live frame still executing inside the
	// victim (e.g. the victim called out and the callee is re-entering).
	for _, th := range m.threads {
		for i := range th.frames {
			if th.frames[i].exec == c.ID {
				return false
			}
		}
	}
	now := m.Clock.Cycles()
	keep := c.restartLog[:0]
	for _, ts := range c.restartLog {
		if now-ts < s.policy.RestartWindow {
			keep = append(keep, ts)
		}
	}
	c.restartLog = keep
	if s.policy.MaxRestarts > 0 && len(c.restartLog) >= s.policy.MaxRestarts {
		old := c.health
		c.health = Dead
		s.m.notifyHealth(c, old, Dead)
		return false
	}

	m.Clock.Charge(s.policy.RestartCost)
	s.teardown(c)
	// Warm path: restore the last good checkpoint instead of rebuilding
	// from empty. A decode/restore failure tears the partial restore back
	// down, drops the poisoned checkpoint, and falls through to the cold
	// OnRestart rebuild — warm recovery must never make a restart fail
	// that would have succeeded cold.
	warm := false
	failedRestore := uint64(0)
	if ck := m.ckpts[c.ID]; ck != nil {
		if err := m.restoreCheckpoint(c, ck); err == nil {
			warm = true
		} else {
			delete(m.ckpts, c.ID)
			failedRestore = 1
		}
	}
	if !warm {
		// Component re-initialisation hooks registered at load time.
		for _, fn := range m.restartHooks[c.ID] {
			fn()
		}
	}
	old := c.health
	c.health = Healthy
	c.restarts++
	c.restartAt = 0
	c.restartLog = append(c.restartLog, now)
	m.note(trace.EvRestart, nil, c.ID, 0, c.restarts, 0, "")
	if warm {
		m.note(trace.EvWarmRestart, nil, c.ID, 0, m.ckpts[c.ID].pages, 0, "")
	} else {
		m.note(trace.EvColdRestart, nil, c.ID, 0, failedRestore, 0, "")
	}
	m.notifyHealth(c, old, Healthy)
	return true
}

// teardown returns cubicle c to the cold-rebuild state: every window it
// owns destroyed (releasing pinned keys) and the descriptor arrays reset,
// its heap and stack pages unmapped, a fresh sub-allocator, and no thread
// holding a stack in it (threads re-create their per-cubicle stacks
// lazily). A restart starts with it, and a failed warm restore ends with
// it.
func (s *Supervisor) teardown(c *Cubicle) {
	for _, w := range c.windows {
		if w != nil {
			s.destroyWindow(c, w)
		}
	}
	c.windows = c.windows[:0]
	for cls := range c.search {
		c.search[cls] = nil
	}
	s.reclaimPages(c)
	c.heap = newSubAllocator(s.m, c.ID)
	for _, th := range s.m.threads {
		th.stacks[c.ID] = nil
	}
}

// reclaimPages unmaps every heap and stack page owned by the cubicle.
// Code and global pages survive a restart: the image is immutable and
// re-verified state, exactly as after the original load.
func (s *Supervisor) reclaimPages(c *Cubicle) {
	m := s.m
	charged := uint64(0) // stack pages are never charged to the quota
	for _, pn := range c.owned {
		a := vm.PageAddr(pn)
		if p := m.AS.Page(a); p != nil && p.Type != vm.PageStack {
			charged += vm.PageSize
		}
		if err := m.AS.Unmap(a, 1); err != nil {
			panic("cubicle: restart unmap failed: " + err.Error())
		}
	}
	c.owned = c.owned[:0]
	// Credit the reclaimed pages back to the cubicle's memory quota.
	if m.memUsed[c.ID] >= charged {
		m.memUsed[c.ID] -= charged
	} else {
		m.memUsed[c.ID] = 0
	}
}

// watchdog raises a BudgetFault when the innermost crossing on thread t
// has consumed more virtual cycles than the policy's CrossingBudget. It
// runs at monitor entries (traps, explicit work, new crossings), which is
// where the simulator's monitor regains control from component code.
func (s *Supervisor) watchdog(t *Thread) {
	b := s.policy.CrossingBudget
	if b == 0 {
		return
	}
	for i := len(t.frames) - 1; i >= 0; i-- {
		f := &t.frames[i]
		if !f.crossing {
			continue
		}
		if used := s.m.Clock.Cycles() - f.entryCycles; used > b {
			panic(&BudgetFault{Cubicle: f.exec, Used: used, Budget: b,
				Reason: "crossing exceeded its watchdog cycle budget"})
		}
		return
	}
}
