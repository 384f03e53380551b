package cubicle

import (
	"cmp"
	"fmt"
	"slices"

	"cubicleos/internal/cycles"
	"cubicleos/internal/snapshot"
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// This file is the monitor's warm-recovery layer: periodic cubicle
// checkpoints taken at quiescent points, and the checkpoint-restore path
// the supervisor uses to warm-restart a quarantined cubicle instead of
// rebuilding it from empty.
//
// A checkpoint is a deterministic, versioned byte image (package snapshot)
// of everything a restart would otherwise destroy: the cubicle's heap
// pages with their metadata, the sub-allocator's free list and live-block
// table, the window descriptors, and one opaque blob per component
// (Component.Snapshot). Code, global and stack pages are deliberately
// absent — code and globals survive restarts untouched (immutable,
// re-verified state, exactly as after the original load) and stacks are
// recreated lazily by the next crossing.
//
// Quiescence rule: a cubicle may only be checkpointed when no thread has a
// frame executing inside it (so no crossing is in flight) and every window
// it owns is closed (so no temporal grant is half-made). The cadence hook
// sits at trampoline Call entry at frame depth zero; threads are
// cooperative, so another thread may be parked mid-crossing there, and
// quiescent() scans every thread's frames.

// snapHook is one component's snapshot/restore callback pair, registered
// by the loader in load order.
type snapHook struct {
	name    string
	snap    func(*SnapCtx) ([]byte, error)
	restore func(*SnapCtx, []byte) error
	// buf is the blob snap returned at the last capture: dead once that
	// capture encoded it, and lent to the next one (SnapCtx.Buf).
	buf []byte
}

// checkpointRecord is the monitor's last good checkpoint of one cubicle.
type checkpointRecord struct {
	img   []byte // encoded snapshot.Image
	cycle uint64 // virtual time of capture
	pages uint64 // heap pages captured
	// spare is the buffer the next capture encodes into: the image img
	// replaced. A capture that succeeds swaps the two, so a vetoed one
	// never touches img, and nothing a restore rebuilt points into either
	// (snapshot.Decode copies what it returns).
	spare []byte
}

// SnapCtx is the capability handed to component Snapshot/Restore hooks:
// monitor-privileged access to simulated memory, bypassing MPK and window
// checks (the monitor executes with access to all keys, §5.3). Component
// state frequently lives in pages owned by another cubicle — NGINX-style
// deployments keep RAMFS file pages in ALLOC's arenas — and a snapshot
// must capture that content regardless of the current tag state.
type SnapCtx struct {
	m *Monitor
	// Cubicle is the cubicle being checkpointed or restored.
	Cubicle ID
	buf     []byte
}

// Buf returns an empty buffer for a Snapshot hook to build its blob in:
// the one the hook's blob came back in at the cubicle's last capture,
// which that capture encoded and so no longer needs. The blob a hook
// returns belongs to the monitor: the hook keeps no reference to it. A nil
// context, which a hook called outside a capture may be given, lends
// nothing.
func (sc *SnapCtx) Buf() []byte {
	if sc == nil {
		return nil
	}
	return sc.buf[:0]
}

// AppendMem appends n bytes of simulated memory at addr to b and returns
// the extended slice, so a hook builds its blob straight out of simulated
// memory. It fails the hook (by returning an error) rather than faulting:
// a snapshot hook reading a stale address means the component's
// bookkeeping drifted from the page state, which vetoes the checkpoint
// instead of killing the run.
func (sc *SnapCtx) AppendMem(b []byte, addr vm.Addr, n uint64) ([]byte, error) {
	b = slices.Grow(b, int(n))
	if err := sc.m.AS.ReadAt(addr, b[len(b):len(b)+int(n)]); err != nil {
		return nil, err
	}
	return b[:len(b)+int(n)], nil
}

// WriteMem writes b to simulated memory at addr with monitor privileges.
func (sc *SnapCtx) WriteMem(addr vm.Addr, b []byte) error {
	return sc.m.AS.WriteAt(addr, b)
}

// EnableCheckpoints arms the checkpoint manager with a virtual-clock
// cadence: at the first trampoline call entry at or past each interval
// threshold, every quiescent checkpointable cubicle is captured. Zero
// disables. Like tracing and containment this is boot wiring; the hot
// path guards on a single integer check.
func (m *Monitor) EnableCheckpoints(interval uint64) {
	m.ckptInterval = interval
	m.ckptNext = interval
}

// CheckpointInfo describes a cubicle's last good checkpoint for the
// inspector and tests.
type CheckpointInfo struct {
	Cubicle ID
	Cycle   uint64 // virtual time the checkpoint was captured at
	Bytes   uint64 // encoded image size
	Pages   uint64 // heap pages captured
}

// LastCheckpoint returns the last good checkpoint of cubicle id, if any.
func (m *Monitor) LastCheckpoint(id ID) (CheckpointInfo, bool) {
	ck := m.ckpts[id]
	if ck == nil {
		return CheckpointInfo{}, false
	}
	return CheckpointInfo{Cubicle: id, Cycle: ck.cycle, Bytes: uint64(len(ck.img)), Pages: ck.pages}, true
}

// maybeCheckpoint is the cadence gate, called at trampoline entry at frame
// depth zero. It fires at most one sweep per interval threshold.
func (m *Monitor) maybeCheckpoint() {
	now := m.Clock.Cycles()
	if now < m.ckptNext {
		return
	}
	m.ckptNext = cycles.NextTick(m.ckptNext, m.ckptInterval, now)
	m.checkpointSweep(now)
}

// checkpointSweep captures every checkpointable, quiescent cubicle, in ID
// order for determinism. Cubicles that veto (a Snapshot hook returned an
// error) or are not quiescent keep their previous checkpoint.
func (m *Monitor) checkpointSweep(now uint64) {
	for _, c := range m.cubicles {
		if !m.checkpointable(c) {
			continue
		}
		m.checkpointOne(c, now)
	}
}

// checkpointable reports whether the cubicle can be warm-recovered at all:
// isolated, healthy, and every component fused into it registered both
// Snapshot and Restore (a partial set would restore pages under a
// component whose Go-side state was rebuilt from empty).
func (m *Monitor) checkpointable(c *Cubicle) bool {
	if c.Kind != KindIsolated || c.health != Healthy {
		return false
	}
	hooks := m.snapHooks[c.ID]
	if len(hooks) == 0 {
		return false
	}
	for _, h := range hooks {
		if h.snap == nil || h.restore == nil {
			return false
		}
	}
	return true
}

// quiescent applies the quiescence rule: no thread frame executing inside
// the cubicle, and all owned windows closed.
func (m *Monitor) quiescent(c *Cubicle) bool {
	for _, th := range m.threads {
		for i := range th.frames {
			if th.frames[i].exec == c.ID {
				return false
			}
		}
	}
	for _, w := range c.windows {
		if w != nil && w.Open != 0 {
			return false
		}
	}
	return true
}

// checkpointOne captures one cubicle into an encoded image and installs it
// as the last good checkpoint. The capture cost — a bulk copy of the image
// through the monitor — is charged to the calling thread's clock at the
// checked-memcpy rate, so checkpoint cadence shows up honestly in the
// virtual-time figures. A capture builds the monitor's one image, hands
// each hook the buffer of its last blob and encodes into the record's
// spare buffer, so once those have grown to the cubicle's size a capture
// allocates nothing.
func (m *Monitor) checkpointOne(c *Cubicle, now uint64) {
	if !m.quiescent(c) {
		return
	}
	img := &m.ckptImg
	img.Reset(uint32(c.ID), now)

	// Component blobs first: a Snapshot error vetoes the round before any
	// page copying is paid for.
	sc := &m.snapCtx
	sc.Cubicle = c.ID
	hooks := m.snapHooks[c.ID]
	for i := range hooks {
		h := &hooks[i]
		sc.buf = h.buf
		data, err := h.snap(sc)
		if err != nil {
			return // veto: keep the previous checkpoint
		}
		h.buf = data
		img.Comps = append(img.Comps, snapshot.ComponentImage{Name: h.name, Data: data})
	}

	// Heap pages, in page-number order (the owned list is ascending).
	for _, pn := range c.owned {
		p := m.AS.Page(vm.PageAddr(pn))
		if p.Type != vm.PageHeap {
			continue
		}
		perm, key := p.Meta()
		pi := snapshot.PageImage{PN: pn, Key: key, Perm: uint8(perm), Type: uint8(p.Type)}
		pi.Data = *p.Bytes() // a never-written page encodes as the zero frame
		img.Pages = append(img.Pages, pi)
	}

	// Sub-allocator state: the free list is kept sorted by address; the
	// live-block table is a map and must be sorted for determinism
	// (addresses are unique, so the order is total). The image shares the
	// free list and window ranges: it is encoded before anything runs that
	// could change them, and lets go of them once encoded.
	img.Heap.ArenaBytes = c.heap.Arena
	img.Heap.LiveBytes = c.heap.Live
	img.Heap.Free = c.heap.Free
	for a, n := range c.heap.Sizes {
		img.Heap.Sizes = append(img.Heap.Sizes, vm.Extent{Addr: a, Size: n})
	}
	slices.SortFunc(img.Heap.Sizes, func(a, b vm.Extent) int { return cmp.Compare(a.Addr, b.Addr) })

	// Window descriptors, rebuilt closed on restore (quiescence guarantees
	// they are closed now). Destroyed slots are skipped; their IDs stay
	// free-listed exactly as windowInit would reuse them.
	for _, w := range c.windows {
		if w == nil {
			continue
		}
		img.Windows = append(img.Windows, snapshot.WindowImage{WID: uint32(w.ID), Ranges: w.Ranges})
	}

	ck := m.ckpts[c.ID]
	if ck == nil {
		ck = new(checkpointRecord)
		m.ckpts[c.ID] = ck
	}
	enc := snapshot.AppendEncode(ck.spare[:0], img)
	img.Heap.Free = nil
	clear(img.Windows)
	size := uint64(len(enc))
	cost := (size + 15) / 16 * m.Costs.CopyChunk16
	m.Clock.Charge(cost)
	ck.img, ck.spare = enc, ck.img
	ck.cycle, ck.pages = now, uint64(len(img.Pages))
	m.note(trace.EvCheckpoint, nil, c.ID, 0, size, cost, "")
}

// restoreCheckpoint rebuilds cubicle c from its last good checkpoint. It
// is called by the supervisor's restart path after teardown (windows
// destroyed, pages reclaimed, fresh sub-allocator, stacks dropped), so on
// entry the cubicle is exactly in the cold-rebuild state. On any error the
// partial restore is torn back down to that state and the caller falls
// back to the cold OnRestart path.
func (m *Monitor) restoreCheckpoint(c *Cubicle, ck *checkpointRecord) error {
	img, err := snapshot.Decode(ck.img)
	if err != nil {
		return err
	}
	if ID(img.Cubicle) != c.ID {
		return fmt.Errorf("checkpoint belongs to cubicle %d", img.Cubicle)
	}
	// Re-map every captured heap page at its original page number and
	// restore its contents. Pages take the cubicle's CURRENT key, not the
	// snapshot's — the key may have been recycled by tag virtualisation
	// since capture. On SMP one summary shootdown round below pays the
	// cross-core synchronisation.
	key := m.keyFor(c.ID)
	for i := range img.Pages {
		pi := &img.Pages[i]
		p, err := m.AS.MapAt(pi.PN, int(c.ID), vm.PageType(pi.Type), vm.Perm(pi.Perm), uint8(key))
		if err != nil {
			m.sup.teardown(c)
			return err
		}
		if pi.Data != [vm.PageSize]byte{} { // an all-zero page stays frame-less
			*m.AS.Writable(p) = pi.Data
		}
		c.ownPages(pi.PN, 1)
	}

	// Rebuild the sub-allocator around the restored arenas.
	h := newSubAllocator(m, c.ID)
	h.Arena = img.Heap.ArenaBytes
	h.Live = img.Heap.LiveBytes
	h.Free = img.Heap.Free
	h.Sizes = make(map[vm.Addr]uint64, len(img.Heap.Sizes))
	for _, e := range img.Heap.Sizes {
		h.Sizes[e.Addr] = e.Size
	}
	c.heap = h

	// Rebuild window descriptors, closed; the class and the search lists
	// are recomputed from the restored pages exactly as windowAdd assigned
	// them.
	for _, wi := range img.Windows {
		for int(wi.WID) >= len(c.windows) {
			c.windows = append(c.windows, nil)
		}
		w := m.newWindow(WID(wi.WID), c.ID)
		w.Ranges = append(w.Ranges, wi.Ranges...)
		for _, e := range wi.Ranges {
			if p := m.AS.Page(e.Addr); p != nil && w.Class == classNone {
				w.Class = classOf(p.Type)
			}
		}
		if w.Class != classNone {
			c.search[w.Class] = append(c.search[w.Class], int(w.ID))
		}
		c.windows[wi.WID] = w
	}

	// Component Go-side state last, when pages and allocator are live so
	// Restore hooks can touch simulated memory through the SnapCtx.
	sc := &m.snapCtx
	sc.Cubicle = c.ID
	blobs := make(map[string][]byte, len(img.Comps))
	for _, ci := range img.Comps {
		blobs[ci.Name] = ci.Data
	}
	for _, h := range m.snapHooks[c.ID] {
		data, ok := blobs[h.name]
		if !ok {
			m.sup.teardown(c)
			return fmt.Errorf("checkpoint missing component %q", h.name)
		}
		if err := h.restore(sc, data); err != nil {
			m.sup.teardown(c)
			return err
		}
	}

	// The restore itself is a bulk copy of the image back through the
	// monitor; charged at the same checked-memcpy rate as capture.
	m.Clock.Charge((uint64(len(ck.img)) + 15) / 16 * m.Costs.CopyChunk16)
	if len(img.Pages) > 0 {
		// One summary shootdown round synchronises the re-tagged pages
		// across cores (single-core machines charge nothing).
		m.shootdown(nil, c.ID)
	}
	return nil
}
