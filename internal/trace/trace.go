// Package trace is the observability layer of the simulated machine: a
// fixed-capacity ring of typed events stamped with the virtual cycle
// clock, streaming per-edge and per-event-class cycle histograms, and a
// virtual-clock profiler that attributes elapsed cycles to the cubicle
// executing when they were charged.
//
// The tracer is zero-dependency (it knows cubicles and threads only as
// integer IDs, resolved to names by a caller-installed namer) and is
// designed so that the *disabled* state costs the monitor exactly one nil
// check per hot-path event and zero allocations. When enabled, recording
// is allocation-free in steady state: the rings are preallocated, the
// histograms are fixed-size, and event labels are interned strings the
// instrumentation sites pass as constants.
//
// A Tracer is one ring over its monitor's one clock: events are stamped
// with the virtual cycle at record time and a sequence number, so the
// stream is nondecreasing in Cycle and strictly increasing in Seq. It is
// driven by the one goroutine that drives its monitor, emission and export
// alike, so it takes no mutex or atomic anywhere.
package trace

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"cubicleos/internal/cycles"
)

// Kind is the type of one trace event.
type Kind uint8

const (
	// EvCallEnter marks a cross-cubicle call entering its trampoline:
	// Cubicle is the caller, Other the callee, Arg the in-stack argument
	// bytes copied, Name the trampoline symbol.
	EvCallEnter Kind = iota
	// EvCallExit marks the matching return; Arg is the inclusive elapsed
	// cycles of the call.
	EvCallExit
	// EvSharedCall is a call into a shared cubicle (no TCB involvement).
	EvSharedCall
	// EvFault is a protection trap served by trap-and-map; Arg is the
	// faulting address and Cost the cycles spent in the handler.
	EvFault
	// EvDeniedFault is a protection trap no window authorised.
	EvDeniedFault
	// EvRetag is one page retag (pkey_mprotect); Arg is the page address,
	// Other the new key.
	EvRetag
	// EvWRPKRU is one wrpkru execution; Arg is the new PKRU value.
	EvWRPKRU
	// EvWindowOp is a window-management API call; Name is the operation
	// (init/add/remove/open/close/close_all/destroy), Arg the
	// window ID.
	EvWindowOp
	// EvWindowSearch is one linear window-descriptor search; Arg is the
	// number of descriptor entries visited.
	EvWindowSearch
	// EvKeyEviction is an MPK key recycled by tag virtualisation; Other
	// is the evicted cubicle, Arg the physical key.
	EvKeyEviction
	// EvIPC is one message-passing call of the microkernel baselines;
	// Name is the operation, Arg the payload bytes marshalled.
	EvIPC
	// EvCopy is a checked bulk copy (memcpy/memset); Arg is the byte count.
	EvCopy
	// EvMark is an application-level marker (e.g. HTTP request lifecycle).
	EvMark
	// EvContained is a fault contained at a cross-cubicle call boundary:
	// Cubicle is the faulted (or refused) callee, Other the caller the
	// typed error was delivered to, Name the fault class.
	EvContained
	// EvQuarantine is a cubicle entering the Quarantined health state;
	// Arg is the backoff in virtual cycles before a restart is allowed.
	EvQuarantine
	// EvRestart is a supervisor restart of a quarantined cubicle; Arg is
	// the cubicle's lifetime restart count after this restart.
	EvRestart
	// EvInjected is one deterministic fault injection firing; Name is the
	// injection site/kind label.
	EvInjected
	// EvShed is a request refused by admission control: Cubicle is the
	// shedding cubicle, Name the reason label (e.g. conns), Arg the HTTP
	// status sent back (429).
	EvShed
	// EvRetry is one bounded-retry attempt after a call refused by a
	// quarantined dependency; Cubicle is the retrying caller, Arg the
	// attempt number, Cost the virtual-cycle backoff charged before it.
	EvRetry
	// EvShootdown is the per-core key synchronisation a page retag pays
	// on a multi-core machine (libmpk-style): Cubicle is the retagged
	// page's owner, Cost the cycles charged (ShootdownIPI per remote
	// core). Single-core runs never record one.
	EvShootdown
	// EvCheckpoint is one cubicle checkpoint captured at a quiescent
	// point: Cubicle is the checkpointed cubicle, Arg the encoded image
	// size in bytes, Cost the virtual cycles the capture charged.
	EvCheckpoint
	// EvWarmRestart is a supervisor restart that restored the cubicle's
	// last good checkpoint instead of rebuilding from empty; Arg is the
	// number of heap pages re-established. Every restart also records an
	// EvRestart, so Restarts == WarmRestarts + ColdRestarts.
	EvWarmRestart
	// EvColdRestart is a supervisor restart that rebuilt the cubicle from
	// empty (no checkpoint existed, or the restore failed and fell back);
	// Arg is 1 when a restore was attempted and failed, 0 otherwise.
	EvColdRestart
	// EvRoute is one cluster balancer routing decision that selected this
	// backend: Name is the policy label (hash/least), Other the backend
	// index in the cluster, Arg the request attempt number (0 = first).
	EvRoute
	// EvDrain is a cluster health-ladder transition for this backend:
	// Name is the phase ("drain" when the balancer stops routing to the
	// backend, "readmit" when it returns to rotation), Arg the drain
	// deadline in virtual cycles (0 on readmit).
	EvDrain
	// EvFailover is a request re-issued away from this backend: Name is
	// the reason label (retry/hedge/drain), Arg the attempt number of the
	// re-issue.
	EvFailover

	// NumKinds is the number of event kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	EvCallEnter:    "call_enter",
	EvCallExit:     "call_exit",
	EvSharedCall:   "shared_call",
	EvFault:        "fault",
	EvDeniedFault:  "denied_fault",
	EvRetag:        "retag",
	EvWRPKRU:       "wrpkru",
	EvWindowOp:     "window_op",
	EvWindowSearch: "window_search",
	EvKeyEviction:  "key_eviction",
	EvIPC:          "ipc",
	EvCopy:         "copy",
	EvMark:         "mark",
	EvContained:    "contained",
	EvQuarantine:   "quarantine",
	EvRestart:      "restart",
	EvInjected:     "injected",
	EvShed:         "shed",
	EvRetry:        "retry",
	EvShootdown:    "shootdown",
	EvCheckpoint:   "checkpoint",
	EvWarmRestart:  "warm_restart",
	EvColdRestart:  "cold_restart",
	EvRoute:        "route",
	EvDrain:        "drain",
	EvFailover:     "failover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one entry of the trace ring. Field meaning varies by Kind
// (see the Kind constants); Cycle is the virtual clock at record time, Seq
// the event's position in the stream, Cost the cycles attributed to the
// event itself where that is meaningful (call elapsed, fault-handler span,
// IPC charge).
// The field order packs Event into exactly 64 bytes — one cache line per
// ring slot — which matters on the recording hot path: every emission
// rewrites one slot of a ring far larger than L1, so slot size is the
// dominant memory traffic per event.
type Event struct {
	Seq     uint64
	Cycle   uint64
	Arg     uint64
	Cost    uint64
	Name    string
	Thread  int32
	Cubicle int32
	Other   int32
	Kind    Kind
}

// Edge is a directed caller→callee pair, the unit of per-edge histograms.
type Edge struct {
	From, To int32
}

// edgeDim bounds the flat per-edge histogram array: cubicle IDs
// 0..edgeDim-1 index directly (MaxCubicles is 64, so every real deployment
// fits); anything outside falls back to an overflow map. Flat indexing
// keeps the hot-path observation to one array load instead of a map
// operation.
const edgeDim = 65

// flatSlot returns the flat-array slot of edge e, or -1 if either ID is
// outside the flat range.
func flatSlot(e Edge) int {
	if uint32(e.From) < edgeDim && uint32(e.To) < edgeDim {
		return int(e.From)*edgeDim + int(e.To)
	}
	return -1
}

// Tracer is the recording side of the observability layer: the event
// ring plus what only it knows — per-edge and per-class cycle histograms
// and the profiler. It counts nothing: the monitor's Stats is the one
// store of event counts.
type Tracer struct {
	clock *cycles.Clock
	namer func(int) string

	// Ring buffer: buf[seq & (len-1)] for seq in [next-len, next).
	buf  []Event
	next uint64

	edgeHists     []*Hist // flat [edgeDim*edgeDim], lazily allocated
	overflowHists map[Edge]*Hist
	classHist     [NumKinds]*Hist // cycle cost distributions per event class

	prof profiler

	// open holds the open call spans per thread (dense thread IDs), for
	// elapsed-cycle computation; openM holds monitor-context (thread -1)
	// spans.
	open  [][]openCall
	openM []openCall

	digest uint64 // FNV-1a of the stream from StartDigest on; 0 before
}

type openCall struct {
	edge  Edge
	start uint64
}

// stackOf returns thread's open-call stack (openM for monitor context),
// growing the index on the first event from a new thread ID.
func (t *Tracer) stackOf(thread int) *[]openCall {
	if thread < 0 {
		return &t.openM
	}
	for thread >= len(t.open) {
		t.open = append(t.open, nil)
	}
	return &t.open[thread]
}

// MaxRing bounds the capacity of a ring — the trace ring here, the metrics
// sample ring in the monitor: 1<<24 entries, a GiB of trace events.
const MaxRing = 1 << 24

// RingCap rounds a requested ring capacity up to the power of two the ring
// is made with, at least 16. Boot wiring rejects a capacity past MaxRing
// with an error before any ring is made, so one here is a bug: it panics.
func RingCap(n int) int {
	if n > MaxRing {
		panic("trace: ring capacity " + itoa(n) + " exceeds MaxRing " + itoa(MaxRing))
	}
	if n <= 16 {
		return 16
	}
	return 1 << bits.Len(uint(n-1))
}

// New creates a tracer over the given virtual clock with a ring of
// RingCap(ringCap) events.
func New(clock *cycles.Clock, ringCap int) *Tracer {
	t := &Tracer{
		clock:     clock,
		buf:       make([]Event, RingCap(ringCap)),
		edgeHists: make([]*Hist, edgeDim*edgeDim),
	}
	t.prof.init(clock)
	return t
}

// Record stamps one event with the clock and the next sequence number and
// writes it in place into its ring slot; a non-zero cost is also folded
// into the kind's class histogram. Field meaning varies by kind (see the
// Kind constants); name should be a constant so recording stays
// allocation-free. It returns the cycle stamp. Scalar parameters keep the
// hot path free of Event struct copies: the fields travel in registers and
// land directly in the ring.
func (t *Tracer) Record(k Kind, thread, cubicle, other int, arg, cost uint64, name string) uint64 {
	now := t.clock.Cycles()
	// Index with len-1 directly so the compiler elides the bounds check
	// (ring capacity is always a power of two).
	ev := &t.buf[t.next&uint64(len(t.buf)-1)]
	ev.Seq = t.next
	ev.Cycle = now
	ev.Kind = k
	ev.Thread = int32(thread)
	ev.Cubicle = int32(cubicle)
	ev.Other = int32(other)
	ev.Arg = arg
	ev.Cost = cost
	ev.Name = name
	t.next++
	if t.digest != 0 {
		t.fold(ev)
	}
	if cost > 0 {
		t.observeClass(k, cost)
	}
	return now
}

// StartDigest starts Digest from the events the ring holds, refusing
// (false) once it has dropped one; Record folds each later event.
func (t *Tracer) StartDigest() bool {
	if t.Dropped() != 0 {
		return false
	}
	t.digest = 14695981039346656037 // FNV-1a's offset basis
	for i := range t.buf[:t.next] {
		t.fold(&t.buf[i])
	}
	return true
}

// Digest is the FNV-1a of every event recorded (see fold), exact whatever
// the ring's size; 0 until StartDigest.
func (t *Tracer) Digest() uint64 { return t.digest }

// fold adds Seq, Cycle, Kind, Thread, Cubicle, Other, Arg and Cost as
// little-endian uint64s (the int32s sign-extended), then len(Name) and Name.
func (t *Tracer) fold(ev *Event) {
	var b [72]byte
	for i, v := range [...]uint64{ev.Seq, ev.Cycle, uint64(ev.Kind), uint64(ev.Thread), uint64(ev.Cubicle),
		uint64(ev.Other), ev.Arg, ev.Cost, uint64(len(ev.Name))} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	t.digest = FNV(FNV(t.digest, b[:]), ev.Name)
}

// FNV continues the 64-bit FNV-1a h over the bytes of b.
func FNV[B string | []byte](h uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// observeClass folds one cost observation into the event class histogram.
func (t *Tracer) observeClass(k Kind, cost uint64) {
	h := t.classHist[k]
	if h == nil {
		h = &Hist{}
		t.classHist[k] = h
	}
	h.Observe(cost)
}

// observeEdge folds one elapsed-cycle observation into edge e's histogram.
func (t *Tracer) observeEdge(e Edge, elapsed uint64) {
	if i := flatSlot(e); i >= 0 {
		h := t.edgeHists[i]
		if h == nil {
			h = &Hist{}
			t.edgeHists[i] = h
		}
		h.Observe(elapsed)
		return
	}
	if t.overflowHists == nil {
		t.overflowHists = make(map[Edge]*Hist)
	}
	h := t.overflowHists[e]
	if h == nil {
		h = &Hist{}
		t.overflowHists[e] = h
	}
	h.Observe(elapsed)
}

// SetNamer installs the cubicle-ID → name resolver used by exporters.
func (t *Tracer) SetNamer(fn func(int) string) { t.namer = fn }

// Name resolves a cubicle ID to a display name.
func (t *Tracer) Name(id int) string {
	if t.namer != nil {
		if n := t.namer(id); n != "" {
			return n
		}
	}
	if id < 0 {
		return "runtime"
	}
	return "cubicle-" + itoa(id)
}

func (t *Tracer) pushOpen(thread int, oc openCall) {
	stk := t.stackOf(thread)
	*stk = append(*stk, oc)
}

func (t *Tracer) popOpen(thread int) (openCall, bool) {
	stk := t.stackOf(thread)
	if n := len(*stk); n > 0 {
		oc := (*stk)[n-1]
		*stk = (*stk)[:n-1]
		return oc, true
	}
	return openCall{}, false
}

// CallEnter records a cross-cubicle call entering its trampoline and
// opens the span used to compute its elapsed cycles.
func (t *Tracer) CallEnter(thread, from, to int, sym string, stackBytes uint64) {
	now := t.Record(EvCallEnter, thread, from, to, stackBytes, 0, sym)
	t.pushOpen(thread, openCall{edge: Edge{From: int32(from), To: int32(to)}, start: now})
}

// CallExit records the return of the innermost open call on thread,
// observing its inclusive elapsed cycles into the per-edge histogram.
func (t *Tracer) CallExit(thread, from, to int, sym string) {
	var elapsed uint64
	if oc, ok := t.popOpen(thread); ok {
		elapsed = t.clock.Cycles() - oc.start
		t.observeEdge(oc.edge, elapsed)
	}
	t.Record(EvCallExit, thread, from, to, elapsed, elapsed, sym)
}

// --- Queries -----------------------------------------------------------------

// edgeHistsByEdge returns the live histogram of every edge with observations;
// exporters only read them.
func (t *Tracer) edgeHistsByEdge() map[Edge]*Hist {
	out := make(map[Edge]*Hist)
	for i, h := range t.edgeHists {
		if h != nil && h.Count() > 0 {
			out[Edge{From: int32(i / edgeDim), To: int32(i % edgeDim)}] = h
		}
	}
	for e, h := range t.overflowHists {
		if h.Count() > 0 {
			out[e] = h
		}
	}
	return out
}

// EdgeSummary is one per-edge histogram digest.
type EdgeSummary struct {
	Edge Edge
	Hist Summary
}

// EdgeSummaries returns the per-edge call-latency digests sorted by
// descending call count (ties by edge).
func (t *Tracer) EdgeSummaries() []EdgeSummary {
	hists := t.edgeHistsByEdge()
	out := make([]EdgeSummary, 0, len(hists))
	for e, h := range hists {
		out = append(out, EdgeSummary{Edge: e, Hist: h.Summary()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hist.Count != out[j].Hist.Count {
			return out[i].Hist.Count > out[j].Hist.Count
		}
		if out[i].Edge.From != out[j].Edge.From {
			return out[i].Edge.From < out[j].Edge.From
		}
		return out[i].Edge.To < out[j].Edge.To
	})
	return out
}

// ClassHist returns the cycle-cost histogram of one event class, or nil if
// no event of that class carried a cost.
func (t *Tracer) ClassHist(k Kind) *Hist { return t.classHist[k] }

// Events returns the surviving ring contents in chronological order. The
// slice holds fresh copies; mutating it does not affect the tracer.
func (t *Tracer) Events() []Event {
	n := t.next
	capa := uint64(len(t.buf))
	if n <= capa {
		out := make([]Event, n)
		copy(out, t.buf[:n])
		return out
	}
	out := make([]Event, capa)
	start := n & (capa - 1)
	copy(out, t.buf[start:])
	copy(out[capa-start:], t.buf[:start])
	return out
}

// Recorded returns the total number of events recorded (including those
// overwritten in the ring).
func (t *Tracer) Recorded() uint64 { return t.next }

// Dropped returns how many events ring wrap has overwritten. A bounded
// ring never loses events silently: every overwrite is counted here.
func (t *Tracer) Dropped() uint64 {
	if capa := uint64(len(t.buf)); t.next > capa {
		return t.next - capa
	}
	return 0
}

// itoa is strconv.Itoa for small non-negative ints without the import.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
