package cubicle

import (
	"fmt"

	"cubicleos/internal/mpk"
	"cubicleos/internal/vm"
)

// Window pinning implements the design extension the paper sketches in
// §8: "it would be interesting to explore new designs that combine
// CubicleOS's trap-and-map approach with window-specific tags that reduce
// overhead for frequently-used windows."
//
// A pinned window holds a dedicated MPK key of its own: its pages are
// retagged to that key once, and the key is enabled in the PKRU of the
// owner and of every cubicle the window is open for. Accesses to the
// window then never fault — the producer/consumer tag ping-pong of
// trap-and-map disappears — at the price of consuming one of the 16
// hardware keys per pinned window (the very exhaustion problem
// trap-and-map avoids, §5.6).

// noPin marks an unpinned window.
const noPin = mpk.Key(0xFF)

// pinWindow assigns window wid of cubicle c a dedicated key. It reports
// whether the window was newly pinned (for the containment journal).
func (m *Monitor) pinWindow(t *Thread, c ID, wid WID) bool {
	m.chargeWindowOp(t, c, "pin", wid)
	w := m.window(c, wid, "window_pin")
	if w.pinned != noPin {
		return false
	}
	key, ok := m.allocPinKey()
	if !ok {
		panic(&APIError{Cubicle: c, Op: "window_pin",
			Reason: "no free MPK keys for a window-specific tag"})
	}
	w.pinned = key
	m.pinned = append(m.pinned, w)
	// Retag every page of the window to the dedicated key — each one a
	// kernel pkey_mprotect, paid once.
	m.retagWindow(t, w, key)
	m.refreshThreadPKRUs()
	return true
}

// unpinWindow releases the window's dedicated key; its pages revert to
// the owner's key and subsequent cross-cubicle accesses go back to
// trap-and-map.
func (m *Monitor) unpinWindow(t *Thread, c ID, wid WID) {
	m.chargeWindowOp(t, c, "unpin", wid)
	w := m.window(c, wid, "window_unpin")
	if w.pinned != noPin {
		m.stripPin(t, w)
	}
}

// stripPin releases pinned window w's dedicated key: its pages revert to
// the owner's key and the PKRU of every live thread is refreshed. The
// supervisor's rollback calls it with no thread, acting as the monitor.
func (m *Monitor) stripPin(t *Thread, w *Window) {
	m.retagWindow(t, w, m.keyFor(w.Owner))
	m.releasePinKey(w.pinned)
	w.pinned = noPin
	for i, pw := range m.pinned {
		if pw == w {
			m.pinned = append(m.pinned[:i], m.pinned[i+1:]...)
			break
		}
	}
	m.refreshThreadPKRUs()
}

// retagWindow sets every page of the window to key.
func (m *Monitor) retagWindow(t *Thread, w *Window, key mpk.Key) {
	for _, r := range w.Ranges {
		first, last := vm.PagesIn(r.Addr, r.Size)
		for pn := first; pn <= last; pn++ {
			if err := mpk.PkeyMprotect(m.AS, vm.PageAddr(pn), 1, key); err != nil {
				panic(fmt.Sprintf("cubicle: pin retag failed: %v", err))
			}
			m.chargeRetag(t, w.Owner, vm.PageAddr(pn), key)
		}
	}
}

// allocPinKey takes a key from the isolated pool for a pinned window.
func (m *Monitor) allocPinKey() (mpk.Key, bool) {
	for k := 1; k <= numIsolatedKeys; k++ {
		if m.keyHolder[k] == -1 {
			m.keyHolder[k] = -3 // reserved for a pinned window
			return mpk.Key(k), true
		}
	}
	return 0, false
}

// releasePinKey returns a pinned window's key to the pool.
func (m *Monitor) releasePinKey(k mpk.Key) {
	if m.keyHolder[k] == -3 {
		m.keyHolder[k] = -1
	}
}

// refreshThreadPKRUs reapplies the PKRU of every live thread whose
// current cubicle's rights may have changed (pin/unpin/open/close of a
// pinned window must take effect immediately — revocation cannot wait
// for the next cubicle switch).
func (m *Monitor) refreshThreadPKRUs() {
	if !m.Mode.MPKEnabled() {
		return
	}
	for _, t := range m.threads {
		t.pkru = m.pkruFor(t.cur)
	}
}

// WindowPin assigns window wid a dedicated MPK key (§8 extension): its
// contents stop trap-and-mapping for the owner and every grantee. Like
// WindowUnpin, only tests call it; both stay as part of the Table 1 surface.
func (e *Env) WindowPin(wid WID) {
	if e.M.pinWindow(e.T, e.T.cur, wid) && e.M.sup != nil {
		e.T.journal = append(e.T.journal, undoEntry{kind: undoUnpinWindow,
			owner: e.T.cur, wid: wid})
	}
}

// WindowUnpin reverts wid to the default lazy trap-and-map behaviour.
func (e *Env) WindowUnpin(wid WID) {
	e.M.unpinWindow(e.T, e.T.cur, wid)
}
