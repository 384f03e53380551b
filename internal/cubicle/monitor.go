package cubicle

import (
	"fmt"

	"cubicleos/internal/cycles"
	"cubicleos/internal/mpk"
	"cubicleos/internal/snapshot"
	"cubicleos/internal/spare"
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// sharedKey is the MPK key carried by every shared cubicle's pages. It is
// enabled in every thread's PKRU, which is what makes a shared cubicle's
// static data "shared among all cubicles" (§3 ❹).
const sharedKey = mpk.Key(15)

// monitorKey tags the monitor's own pages and trampoline code thunks.
const monitorKey = mpk.Key(0)

// numIsolatedKeys is how many physical keys remain for isolated cubicles
// once the monitor and shared keys are reserved.
const numIsolatedKeys = int(mpk.NumKeys) - 2 // keys 1..14

// Monitor is the trusted memory monitor of §4/§5.3: it bootstraps the
// system, owns the page metadata, enforces cubicle isolation and window
// permissions via the lazy trap-and-map scheme, and hosts the
// cross-cubicle call trampolines. It is itself a trusted cubicle that
// executes with access to all keys.
type Monitor struct {
	AS    *vm.AddrSpace
	Clock *cycles.Clock
	Costs cycles.Costs
	Mode  Mode
	Stats Stats

	// rows is note's table (bindCounters): per event kind, the Stats
	// fields of its count and Weighted Counters rows. A kind with no count
	// row counts into sink, which nothing reads.
	rows [trace.NumKinds]struct{ count, weight *uint64 }
	sink uint64

	// trc is the optional tracing layer. It is nil unless EnableTracing
	// was called; note, and each close of a call span, guards on that nil
	// check, which keeps ModeFull benchmarks with tracing off unaffected.
	trc *trace.Tracer

	// sup is the optional fault-containment supervisor (nil unless
	// EnableContainment was called). Like tracing, containment is strictly
	// opt-in and every hot-path hook guards on the nil check.
	sup *Supervisor
	// met is the optional virtual-time metrics pipeline (nil unless
	// EnableMetrics was called); see metrics.go. Guarded like trc/sup.
	met *metricsCollector
	// inj is the optional deterministic fault injector.
	inj Injector
	// restartHooks are per-cubicle component re-initialisation callbacks
	// the loader registers from Component.OnRestart.
	restartHooks map[ID][]func()
	// snapHooks are per-cubicle component snapshot/restore callbacks the
	// loader registers from Component.Snapshot/Restore, in load order. A
	// cubicle is only checkpointable when every component fused into it
	// registered both hooks (see checkpoint.go).
	snapHooks map[ID][]snapHook
	// ckptInterval, when non-zero, is the virtual-clock checkpoint cadence
	// (EnableCheckpoints); ckptNext is the next threshold; ckpts holds the
	// last good encoded checkpoint per cubicle. ckptImg is the image every
	// capture builds before encoding it and snapCtx the context every hook
	// is handed: one of each, reused (checkpoint.go).
	ckptInterval uint64
	ckptNext     uint64
	ckpts        map[ID]*checkpointRecord
	ckptImg      snapshot.Image
	snapCtx      SnapCtx
	// memQuota caps the page bytes MapOwned will grant per cubicle
	// (absent = unlimited); memUsed tracks the bytes currently granted.
	memQuota map[ID]uint64
	memUsed  map[ID]uint64

	// smpN is the simulated core count (0/1 = single-core): a retag pays
	// the shootdown surcharge for smpN-1 remote cores (smp.go).
	smpN int

	// healthHook, when set, observes supervisor health-ladder transitions
	// (see SetHealthHook) — the cluster balancer's drain/re-admit signal.
	healthHook HealthHook

	cubicles    []*Cubicle
	byName      map[string]*Cubicle
	compOf      map[string]*Cubicle // component name -> hosting cubicle
	trampolines []*Trampoline
	guardPages  map[uint64]guardInfo // page number -> guard/thunk metadata
	threads     []*Thread
	// pinned lists windows carrying a window-specific tag (§8 extension).
	pinned []*Window
	// spareWindows holds destroyed window descriptors for windowInit to
	// reuse (newWindow).
	spareWindows spare.List[Window]

	// Physical-key allocation. With at most 14 isolated cubicles the
	// assignment is static; beyond that the monitor virtualises keys in
	// the style the paper points to (libmpk, §8), recycling the least
	// recently used key and retagging the evicted cubicle's pages.
	// A cubicle's current physical key is its Key field (0xFF while evicted).
	keyHolder [mpk.NumKeys]ID // which cubicle holds each physical key (-1 free)
	keyClock  uint64          // LRU tick
	keyUsed   [mpk.NumKeys]uint64
}

// NewMonitor creates a monitor for a system running in the given mode.
func NewMonitor(mode Mode, costs cycles.Costs) *Monitor {
	m := &Monitor{
		AS:           vm.NewAddrSpace(),
		Clock:        &cycles.Clock{},
		Costs:        costs,
		Mode:         mode,
		Stats:        newStats(),
		byName:       make(map[string]*Cubicle),
		compOf:       make(map[string]*Cubicle),
		guardPages:   make(map[uint64]guardInfo),
		restartHooks: make(map[ID][]func()),
		snapHooks:    make(map[ID][]snapHook),
		ckpts:        make(map[ID]*checkpointRecord),
		memQuota:     make(map[ID]uint64),
		memUsed:      make(map[ID]uint64),
	}
	m.snapCtx.m = m
	m.bindCounters()
	for i := range m.keyHolder {
		m.keyHolder[i] = -1
	}
	mon := &Cubicle{ID: MonitorID, Name: "MONITOR", Kind: KindTrusted, Key: monitorKey,
		exports: make(map[string]*Trampoline)}
	mon.heap = newSubAllocator(m, MonitorID)
	m.cubicles = []*Cubicle{mon}
	m.byName["MONITOR"] = mon
	m.keyHolder[monitorKey] = MonitorID
	m.keyHolder[sharedKey] = -2 // reserved for shared cubicles
	return m
}

// EnableTracing attaches a tracer with a ring of ringCap events to the
// monitor. Enable it before loading components so the per-cubicle cycle
// profile covers the whole virtual clock. The returned tracer is also
// available through Tracer.
func (m *Monitor) EnableTracing(ringCap int) *trace.Tracer {
	trc := trace.New(m.Clock, ringCap)
	trc.SetNamer(func(id int) string {
		if c := m.cubicleIfValid(ID(id)); c != nil {
			return c.Name
		}
		return ""
	})
	m.trc = trc
	return trc
}

// SetTLBEnabled does nothing: compile shim whose sole caller is benchmark/probes.go.
func (m *Monitor) SetTLBEnabled(bool) {}

// Tracer returns the attached tracer, or nil when tracing is disabled.
func (m *Monitor) Tracer() *trace.Tracer { return m.trc }

// cubicle returns the cubicle with the given ID, panicking on a runtime
// bug (IDs are link-time constants; an unknown ID cannot come from
// untrusted code).
func (m *Monitor) cubicle(id ID) *Cubicle {
	if id < 0 || int(id) >= len(m.cubicles) {
		panic(fmt.Sprintf("cubicle: unknown cubicle ID %d", id))
	}
	return m.cubicles[id]
}

// Cubicles returns all cubicles in the system, monitor first.
func (m *Monitor) Cubicles() []*Cubicle {
	out := make([]*Cubicle, len(m.cubicles))
	copy(out, m.cubicles)
	return out
}

// addCubicle registers a new cubicle. Only the loader calls this.
func (m *Monitor) addCubicle(name string, kind Kind) (*Cubicle, error) {
	if _, dup := m.byName[name]; dup {
		return nil, fmt.Errorf("cubicle: duplicate cubicle name %q", name)
	}
	if len(m.cubicles) >= MaxCubicles {
		return nil, fmt.Errorf("cubicle: deployment exceeds %d cubicles", MaxCubicles)
	}
	c := &Cubicle{
		ID:      ID(len(m.cubicles)),
		Name:    name,
		Kind:    kind,
		exports: make(map[string]*Trampoline),
	}
	switch kind {
	case KindShared, KindTrusted:
		if kind == KindShared {
			c.Key = sharedKey
		} else {
			c.Key = monitorKey
		}
	default:
		m.acquireKey(c)
	}
	c.heap = newSubAllocator(m, c.ID)
	m.cubicles = append(m.cubicles, c)
	m.byName[name] = c
	return c, nil
}

// acquireKey hands cubicle c, which holds none, a physical MPK key,
// evicting the least recently used holder if all 14 isolated keys are taken
// (tag virtualisation, §8). Eviction retags every page carrying the victim's
// key to the monitor key so that the victim's next access simply traps and
// remaps, preserving isolation throughout.
func (m *Monitor) acquireKey(c *Cubicle) mpk.Key {
	// Free key?
	for k := 1; k <= numIsolatedKeys; k++ {
		if m.keyHolder[k] == -1 {
			return m.assignKey(c, mpk.Key(k))
		}
	}
	// Evict the LRU holder.
	victim := mpk.Key(0)
	var oldest uint64 = ^uint64(0)
	for k := 1; k <= numIsolatedKeys; k++ {
		if m.keyUsed[k] < oldest {
			oldest = m.keyUsed[k]
			victim = mpk.Key(k)
		}
	}
	victimID := m.keyHolder[victim]
	m.note(trace.EvKeyEviction, nil, victimID, ID(victim), uint64(victim), 0, "")
	// Retag the victim's pages to the monitor key; each retag is a
	// pkey_mprotect through the host kernel — the price of key recycling
	// that libmpk measures and the paper's design mostly avoids. The walk is
	// by key, not by owner (trap-mapped window pages of other cubicles carry
	// the victim's key too), so no cubicle's owned-page list answers it.
	m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if mpk.Key(p.Key()) == victim {
			p.SetKey(uint8(monitorKey))
			m.chargeRetag(nil, victimID, vm.PageAddr(pn), monitorKey)
		}
	})
	if v := m.cubicleIfValid(victimID); v != nil {
		v.Key = 0xFF // no physical key until re-acquired
	}
	return m.assignKey(c, victim)
}

func (m *Monitor) cubicleIfValid(id ID) *Cubicle {
	if id < 0 || int(id) >= len(m.cubicles) {
		return nil
	}
	return m.cubicles[id]
}

func (m *Monitor) assignKey(c *Cubicle, k mpk.Key) mpk.Key {
	m.keyHolder[k] = c.ID
	m.keyClock++
	m.keyUsed[k] = m.keyClock
	c.Key = k
	return k
}

// keyOf returns the physical key of cubicle c, acquiring one if it was
// evicted. Shared and trusted cubicles have fixed keys. Every use touches
// the key's LRU stamp: the eviction order is virtual behaviour.
func (m *Monitor) keyOf(c *Cubicle) mpk.Key {
	switch c.Kind {
	case KindShared:
		return sharedKey
	case KindTrusted:
		return monitorKey
	}
	if c.Key == 0xFF {
		return m.acquireKey(c)
	}
	m.keyClock++
	m.keyUsed[c.Key] = m.keyClock
	return c.Key
}

// keyFor is keyOf for callers that hold an ID.
func (m *Monitor) keyFor(id ID) mpk.Key { return m.keyOf(m.cubicle(id)) }

// pkruOf computes the PKRU register value for a thread executing in
// cubicle c: its own key plus the shared key, everything else denied
// (Figure 3). When MPK is disabled (ablation modes) every thread runs
// with all keys allowed.
func (m *Monitor) pkruOf(c *Cubicle) mpk.PKRU {
	if !m.Mode.MPKEnabled() || c.Kind == KindTrusted {
		return mpk.AllAllowed
	}
	p := mpk.AllDenied.Allow(m.keyOf(c)).Allow(sharedKey)
	// Window-specific tags (§8 extension): keys of pinned windows the
	// cubicle owns or is granted.
	for _, w := range m.pinned {
		if w.Owner == c.ID || w.IsOpenFor(c.ID) {
			p = p.Allow(w.pinned)
		}
	}
	return p
}

// pkruFor is pkruOf for callers that hold an ID.
func (m *Monitor) pkruFor(id ID) mpk.PKRU { return m.pkruOf(m.cubicle(id)) }

// resolveSpan validates an n-byte access of the given kind at addr by
// thread t, page by page: page lookup, page-table permission check, PKRU
// check and, on denial, the watchdog checkpoint and the trap-and-map
// protocol of §5.3 / Figure 4. It panics with a ProtectionFault if the
// access is not authorised. The length is a full 64-bit byte count (n = 0
// checks one byte); ranges that would wrap the address space fault instead
// of silently truncating.
func (m *Monitor) resolveSpan(t *Thread, kind mpk.AccessKind, addr vm.Addr, n uint64) {
	if n == 0 {
		n = 1
	}
	if addr == 0 {
		panic(&ProtectionFault{Addr: addr, Access: kind, Cubicle: t.cur, Owner: vm.NoOwner,
			Reason: "null pointer dereference"})
	}
	if uint64(addr)+n < uint64(addr) {
		panic(&ProtectionFault{Addr: addr, Access: kind, Cubicle: t.cur, Owner: vm.NoOwner,
			Reason: "access range wraps the address space"})
	}
	first, last := vm.PagesIn(addr, n)
	for pn := first; pn <= last; pn++ {
		m.checkPage(t, kind, pn)
	}
}

// checkPage is the per-page access check of resolveSpan. The allowed path
// charges nothing; denial pays the watchdog checkpoint and trap-and-map.
func (m *Monitor) checkPage(t *Thread, kind mpk.AccessKind, pn uint64) {
	pa := vm.PageAddr(pn)
	p := m.AS.Page(pa)
	if p == nil {
		panic(&ProtectionFault{Addr: pa, Access: kind, Cubicle: t.cur, Owner: vm.NoOwner,
			Reason: "unmapped page"})
	}
	perm, key := p.Meta()
	// Page-table permissions are checked regardless of MPK; the
	// trap-and-map handler never changes page permissions, only keys.
	if !pageTablePerm(kind, perm) {
		panic(&ProtectionFault{Addr: pa, Access: kind, Cubicle: t.cur, Owner: ID(p.Owner),
			PageType: p.Type, Reason: fmt.Sprintf("page-table permission %s denies %s", perm, kind)})
	}
	if t.pkru.Check(kind, perm, mpk.Key(key)) {
		return // allowed: no trap
	}
	if m.sup != nil {
		// Monitor entry is a watchdog checkpoint: a runaway callee that
		// keeps touching memory is caught here.
		m.sup.watchdog(t)
	}
	m.trapAndMap(t, kind, pa, p)
}

func pageTablePerm(kind mpk.AccessKind, perm vm.Perm) bool {
	switch kind {
	case mpk.AccessRead:
		return perm.Has(vm.PermRead)
	case mpk.AccessWrite:
		return perm.Has(vm.PermWrite)
	case mpk.AccessExec:
		return perm.Has(vm.PermExec)
	}
	return false
}

// trapAndMap is the monitor's protection-fault handler (Figure 4):
//
//	❶ the faulting access raised a page fault captured by the monitor;
//	❷ locate the page's owner and window-descriptor array via the O(1)
//	   page metadata map;
//	❸ linearly search the owner's window descriptors of the page's class;
//	❹ index the window's cubicle bitmask with the faulting cubicle, O(1);
//	❺ if allowed, retag the page's MPK key to the faulting cubicle.
func (m *Monitor) trapAndMap(t *Thread, kind mpk.AccessKind, pa vm.Addr, p *vm.Page) {
	clk := m.Clock
	trapStart := clk.Cycles()
	clk.Charge(m.Costs.TrapEntry + m.Costs.PageMetaLookup)

	cur := t.cur
	owner := ID(p.Owner)
	deny := func(reason string) {
		// The trap was taken and paid for, then refused: a fault and a
		// denied fault.
		m.note(trace.EvFault, t, cur, owner, uint64(pa), clk.Cycles()-trapStart, "")
		m.note(trace.EvDeniedFault, t, cur, owner, uint64(pa), 0, "")
		panic(&ProtectionFault{Addr: pa, Access: kind, Cubicle: cur, Owner: owner,
			PageType: p.Type, Reason: reason})
	}
	if p.Owner == vm.NoOwner {
		deny("page belongs to the trusted runtime")
	}
	allowed := false
	var searchSteps uint64
	switch {
	case owner == cur:
		// Implicit window 0: a cubicle always has access to the pages it
		// owns (Figure 2), even when a previous window access left them
		// tagged with another cubicle's key (causal tag consistency).
		allowed = true
	case !m.Mode.ACLEnabled():
		// Ablation: windows are "open for any access" — the trap and the
		// retag are paid, the ACL check is not.
		allowed = true
	default:
		ownerCub := m.cubicle(owner)
		cls := classOf(p.Type)
		if cls != classNone {
			for _, idx := range ownerCub.search[cls] {
				w := ownerCub.windows[idx]
				if w == nil {
					continue
				}
				searchSteps++
				clk.Charge(m.Costs.WindowSearchEntry)
				if w.covers(pa) && w.IsOpenFor(cur) {
					allowed = true
					break
				}
			}
		}
	}
	if searchSteps > 0 {
		m.note(trace.EvWindowSearch, t, cur, 0, searchSteps, 0, "")
	}
	if !allowed {
		deny("no open window authorises the access")
	}
	if m.inj != nil {
		if k := m.inj.AtRetag(m.cubicle(cur).Name); k != InjectNone {
			// An injected retag failure presents as a denied trap so the
			// fault/denial accounting stays consistent with real denials.
			m.note(trace.EvInjected, nil, cur, 0, 0, 0, "retag")
			deny("injected fault at retag")
		}
	}
	// ❺ Retag the page to the accessing cubicle's key. Writable access
	// is granted as a whole: windows are read/write grants in CubicleOS.
	key := m.keyFor(cur)
	if err := mpk.PkeyMprotect(m.AS, pa, 1, key); err != nil {
		panic(fmt.Sprintf("cubicle: retag failed: %v", err))
	}
	m.chargeRetag(t, cur, pa, key)
	m.note(trace.EvFault, t, cur, owner, uint64(pa), clk.Cycles()-trapStart, "")
}

// chargeRetag charges and records one page retag (the caller has already
// changed the page's key), on behalf of thread t (nil for monitor-context
// retags). On an SMP machine the retag additionally pays the per-core
// shootdown synchronisation (smp.go).
func (m *Monitor) chargeRetag(t *Thread, cub ID, addr vm.Addr, key mpk.Key) {
	m.Clock.Charge(m.Costs.PkeyMprotect)
	m.note(trace.EvRetag, t, cub, ID(key), uint64(addr), 0, "")
	m.shootdown(t, cub)
}

// wrpkru models one execution of the wrpkru instruction on thread t.
func (m *Monitor) wrpkru(t *Thread, v mpk.PKRU) {
	t.pkru = v
	if m.Mode.MPKEnabled() {
		m.Clock.Charge(m.Costs.WRPKRU)
		m.note(trace.EvWRPKRU, t, t.cur, 0, uint64(v), 0, "")
	}
}

// MapOwned maps npages pages owned by cubicle id with the given type and
// permissions, tagged with the cubicle's current key. It is the monitor's
// page-granting primitive used by the loader and the sub-allocators;
// pages are strictly assigned an owner and type at allocation time (§5.3).
func (m *Monitor) MapOwned(id ID, npages int, typ vm.PageType, perm vm.Perm) vm.Addr {
	return m.mapOwnedFor(nil, id, npages, typ, perm)
}

// mapOwnedFor is MapOwned on behalf of thread t (nil for monitor context),
// to which a quota refusal is attributed.
func (m *Monitor) mapOwnedFor(t *Thread, id ID, npages int, typ vm.PageType, perm vm.Perm) vm.Addr {
	bytes := uint64(npages) * vm.PageSize
	// Stack pages are exempt from the quota: they are crossing
	// infrastructure allocated lazily in pushFrame, BEFORE the crossing's
	// containment is armed — a fault there could not be attributed or
	// rolled back. The overload vector the quota exists for is heap and
	// buffer growth; per-thread stacks are small and bounded.
	if typ != vm.PageStack {
		if q := m.memQuota[id]; q != 0 && m.memUsed[id]+bytes > q {
			m.note(trace.EvQuota, t, id, 0, m.memUsed[id]+bytes, q, "pages")
			panic(&QuotaFault{Cubicle: id, Resource: "pages", Used: m.memUsed[id] + bytes, Limit: q})
		}
	}
	c := m.cubicle(id)
	addr, err := m.AS.Map(npages, int(id), typ, perm, uint8(m.keyOf(c)))
	if err != nil {
		panic(&APIError{Cubicle: id, Op: "map", Reason: err.Error()})
	}
	if typ != vm.PageStack {
		m.memUsed[id] += bytes
	}
	if typ == vm.PageHeap || typ == vm.PageStack {
		c.ownPages(addr.PageNum(), npages)
	}
	return addr
}
