package cubicle

import (
	"fmt"
	"slices"

	"cubicleos/internal/mpk"
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// WID identifies a window within its owning cubicle. Windows are assigned
// to the calling cubicle and can only be managed by it (§4).
type WID int

// Window is a user-managed, discretionary access-control list for memory
// (§5.3): a set of memory ranges in the owning cubicle plus a bitmask of
// the cubicles for which the window is currently open. The bitmask size is
// fixed at deployment time since all cubicle IDs are known at link time.
type Window struct {
	ID     WID
	Owner  ID
	Class  windowClass // set by the first Add; ranges share a class
	Ranges []vm.Extent
	Open   uint64 // bitmask: bit i set = open for cubicle i
	// pinned is the window-specific MPK key of the §8 extension, or
	// noPin for the default trap-and-map behaviour.
	pinned mpk.Key
}

// IsOpenFor reports whether the window is open for cubicle cid.
func (w *Window) IsOpenFor(cid ID) bool {
	return cid >= 0 && cid < MaxCubicles && w.Open&(1<<uint(cid)) != 0
}

// covers reports whether any range of the window covers addr.
func (w *Window) covers(addr vm.Addr) bool {
	for _, r := range w.Ranges {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

func (w *Window) String() string {
	return fmt.Sprintf("window %d (owner %d, %d ranges, open %#x)", w.ID, w.Owner, len(w.Ranges), w.Open)
}

// chargeWindowOp charges and records the cost of one window-management
// API call. Window bookkeeping only costs anything when ACLs are
// enforced; in the no-ACL ablation the calls are retained in component
// code but compile to no-ops, which is how Figure 6 separates the
// "windows" overhead from the "MPK" overhead. op and wid label the trace
// event (wid -1 when the window is not yet allocated).
func (m *Monitor) chargeWindowOp(t *Thread, c ID, op string, wid WID) {
	if m.Mode.ACLEnabled() {
		m.Clock.Charge(m.Costs.WindowOp)
		m.note(trace.EvWindowOp, t, c, 0, uint64(wid), 0, op)
	}
	if m.inj != nil {
		if k := m.inj.AtWindowOp(m.cubicle(c).Name, op); k != InjectNone {
			m.note(trace.EvInjected, nil, c, 0, 0, 0, "window_op")
			panic(&ProtectionFault{Cubicle: c, Owner: c,
				Reason: "injected fault at window op"})
		}
	}
}

// windowInit implements cubicle_window_init for cubicle c.
func (m *Monitor) windowInit(t *Thread, c ID) WID {
	cub := m.cubicle(c)
	// Reuse a destroyed slot if one exists; otherwise the cubicle asks
	// the monitor to extend the descriptor array (§5.3).
	wid := WID(slices.Index(cub.windows, nil))
	if wid < 0 {
		wid = WID(len(cub.windows))
		cub.windows = append(cub.windows, nil)
	}
	cub.windows[wid] = m.newWindow(wid, c)
	m.chargeWindowOp(t, c, "init", wid)
	return wid
}

// newWindow returns an empty, closed, unpinned descriptor for window wid
// of cubicle owner: the most recently destroyed one (dropWindow), reset
// to what a new one holds but for the capacity of its Ranges.
func (m *Monitor) newWindow(wid WID, owner ID) *Window {
	w := m.spareWindows.Take()
	*w = Window{ID: wid, Owner: owner, Class: classNone, Ranges: w.Ranges[:0], pinned: noPin}
	return w
}

// dropWindow takes the unpinned window w off its cubicle's descriptor
// array and search list, leaving its slot nil for windowInit, and retires
// the descriptor for newWindow.
func (m *Monitor) dropWindow(cub *Cubicle, w *Window) {
	if w.Class != classNone {
		lst := cub.search[w.Class]
		if i := slices.Index(lst, int(w.ID)); i >= 0 {
			cub.search[w.Class] = slices.Delete(lst, i, i+1)
		}
	}
	cub.windows[w.ID] = nil
	m.spareWindows.Put(w)
}

// window fetches window wid of cubicle c, failing the calling component if
// the window does not exist or is not owned by c.
func (m *Monitor) window(c ID, wid WID, op string) *Window {
	cub := m.cubicle(c)
	if wid < 0 || int(wid) >= len(cub.windows) || cub.windows[wid] == nil {
		panic(&APIError{Cubicle: c, Op: op, Reason: fmt.Sprintf("no such window %d", wid)})
	}
	w := cub.windows[wid]
	if w.Owner != c {
		panic(&APIError{Cubicle: c, Op: op, Reason: fmt.Sprintf("window %d owned by cubicle %d", wid, w.Owner)})
	}
	return w
}

// windowAdd implements cubicle_window_add: associate [ptr, ptr+size) with
// window wid. The memory must be owned by the calling cubicle — a cubicle
// cannot open a window onto data shared with it by another cubicle (the
// nested-call rule of §5.6).
func (m *Monitor) windowAdd(t *Thread, c ID, wid WID, ptr vm.Addr, size uint64) {
	m.chargeWindowOp(t, c, "add", wid)
	w := m.window(c, wid, "window_add")
	if size == 0 {
		panic(&APIError{Cubicle: c, Op: "window_add", Reason: "empty range"})
	}
	first, last := vm.PagesIn(ptr, size)
	var cls windowClass
	for pn := first; pn <= last; pn++ {
		p := m.AS.Page(vm.PageAddr(pn))
		if p == nil {
			panic(&APIError{Cubicle: c, Op: "window_add", Reason: fmt.Sprintf("unmapped page %#x", pn<<vm.PageShift)})
		}
		if p.Owner != int(c) {
			panic(&APIError{Cubicle: c, Op: "window_add",
				Reason: fmt.Sprintf("page %#x owned by cubicle %d, not by caller", pn<<vm.PageShift, p.Owner)})
		}
		pc := classOf(p.Type)
		if pc == classNone {
			panic(&APIError{Cubicle: c, Op: "window_add", Reason: "code pages cannot be windowed"})
		}
		if pn == first {
			cls = pc
		} else if pc != cls {
			panic(&APIError{Cubicle: c, Op: "window_add", Reason: "range spans pages of different types"})
		}
	}
	cub := m.cubicle(c)
	if w.Class == classNone {
		w.Class = cls
		cub.search[cls] = append(cub.search[cls], int(w.ID))
	} else if w.Class != cls {
		panic(&APIError{Cubicle: c, Op: "window_add",
			Reason: fmt.Sprintf("window holds %v ranges; cannot mix with %v", w.Class, cls)})
	}
	w.Ranges = append(w.Ranges, vm.Extent{Addr: ptr, Size: size})
	if w.pinned != noPin {
		// Ranges added to a pinned window take its dedicated key at once.
		first, last := vm.PagesIn(ptr, size)
		for pn := first; pn <= last; pn++ {
			m.AS.Page(vm.PageAddr(pn)).SetKey(uint8(w.pinned))
			m.chargeRetag(t, c, vm.PageAddr(pn), w.pinned)
		}
	}
}

// windowRemove implements cubicle_window_remove: drop the range previously
// associated with wid that starts at ptr.
func (m *Monitor) windowRemove(t *Thread, c ID, wid WID, ptr vm.Addr) {
	m.chargeWindowOp(t, c, "remove", wid)
	w := m.window(c, wid, "window_remove")
	for i, r := range w.Ranges {
		if r.Addr == ptr {
			w.Ranges = append(w.Ranges[:i], w.Ranges[i+1:]...)
			return
		}
	}
	panic(&APIError{Cubicle: c, Op: "window_remove", Reason: fmt.Sprintf("no range at %#x", uint64(ptr))})
}

// windowOpen implements cubicle_window_open: allow cubicle cid to access
// the window's contents. It reports whether the grant is new, so the
// containment journal only records transitions it must undo.
func (m *Monitor) windowOpen(t *Thread, c ID, wid WID, cid ID) bool {
	m.chargeWindowOp(t, c, "open", wid)
	w := m.window(c, wid, "window_open")
	if cid < 0 || cid >= MaxCubicles || int(cid) >= len(m.cubicles) {
		panic(&APIError{Cubicle: c, Op: "window_open", Reason: fmt.Sprintf("no such cubicle %d", cid)})
	}
	newGrant := w.Open&(1<<uint(cid)) == 0
	w.Open |= 1 << uint(cid)
	if w.pinned != noPin {
		m.refreshThreadPKRUs()
	}
	return newGrant
}

// windowClose implements cubicle_window_close. Closing does not retag any
// pages: the monitor maintains causal tag consistency (§5.6), lazily
// reassigning tags only when a page is next accessed.
func (m *Monitor) windowClose(t *Thread, c ID, wid WID, cid ID) {
	m.chargeWindowOp(t, c, "close", wid)
	w := m.window(c, wid, "window_close")
	if cid >= 0 && cid < MaxCubicles {
		w.Open &^= 1 << uint(cid)
	}
	if w.pinned != noPin {
		// Pinned windows revoke eagerly: the grantee's PKRU loses the
		// window key immediately (no causal laziness to fall back on).
		m.refreshThreadPKRUs()
	}
}

// windowCloseAll implements cubicle_window_close_all.
func (m *Monitor) windowCloseAll(t *Thread, c ID, wid WID) {
	m.chargeWindowOp(t, c, "close_all", wid)
	w := m.window(c, wid, "window_close_all")
	w.Open = 0
	if w.pinned != noPin {
		m.refreshThreadPKRUs()
	}
}

// windowDestroy implements cubicle_window_destroy.
func (m *Monitor) windowDestroy(t *Thread, c ID, wid WID) {
	m.chargeWindowOp(t, c, "destroy", wid)
	w := m.window(c, wid, "window_destroy")
	if w.pinned != noPin {
		m.unpinWindow(t, c, wid)
	}
	m.dropWindow(m.cubicle(c), w)
}

// WindowCount returns the number of live windows owned by cubicle c;
// used by tests and the inspector.
func (m *Monitor) WindowCount(c ID) int {
	n := 0
	for _, w := range m.cubicle(c).windows {
		if w != nil {
			n++
		}
	}
	return n
}
