package cubicle

import (
	"errors"
	"strings"
	"testing"

	"cubicleos/internal/vm"
)

// TestAccessRangeWrapFaults is the width regression test: an access whose
// addr+n wraps the 64-bit address space must raise a typed ProtectionFault
// up front. Before access lengths were carried as uint64 end to end, the
// page-range walk saw last < first, checked nothing, and the copy path
// then tried to materialise the range.
func TestAccessRangeWrapFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 4096)
	src := ts.heapIn(t, "FOO", 4096)
	for _, tc := range []struct {
		name string
		fn   func(e *Env)
	}{
		{"memset-wrap", func(e *Env) { e.Memset(buf, 0, ^uint64(0)) }},
		{"memcpy-wrap", func(e *Env) { e.Memcpy(buf, src, ^uint64(0)-16) }},
		{"read-wrap", func(e *Env) { e.View(buf, ^uint64(0)-uint64(buf)+1, func(uint64, []byte) {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			ts.enter(t, "FOO", func(e *Env) {
				err = Catch(func() { tc.fn(e) })
			})
			var pf *ProtectionFault
			if !errors.As(err, &pf) {
				t.Fatalf("got %v, want *ProtectionFault", err)
			}
			if !strings.Contains(pf.Reason, "wraps") {
				t.Errorf("fault reason %q, want mention of address-space wrap", pf.Reason)
			}
		})
	}
	// A huge but non-wrapping length must fault on the first unmapped page,
	// not attempt to materialise the range; address 0 is never valid.
	ts.enter(t, "FOO", func(e *Env) {
		err := Catch(func() { e.Memset(buf, 0, 1<<40) })
		var pf *ProtectionFault
		if !errors.As(err, &pf) {
			t.Fatalf("huge memset: got %v, want *ProtectionFault", err)
		}
		err = Catch(func() { e.LoadByte(0) })
		if !errors.As(err, &pf) || !strings.Contains(pf.Reason, "null pointer") {
			t.Fatalf("load of address 0: got %v, want a null-pointer *ProtectionFault", err)
		}
	})
}

// The four tests below pin that the page walk re-reads live (PKRU, key,
// mapping) state on every access.

// TestRetagUnderWindowRetraps checks that a retag under an open window is
// re-trapped: after BAR's lazy retag moves FOO's buffer to BAR's key, FOO's
// next access must trap the page back, not be served from an earlier
// decision.
func TestRetagUnderWindowRetraps(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 64)
	barID := ts.cubs["BAR"].ID
	ts.enter(t, "FOO", func(e *Env) {
		e.StoreByte(buf, 0x5A)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 64)
		e.WindowOpen(wid, barID)
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar_read")
		if got := h.Call(e, uint64(buf), 0)[0]; got != 0x5A {
			t.Fatalf("bar_read = %#x, want 0x5A", got)
		}
		before := ts.m.Stats
		if got := e.LoadByte(buf); got != 0x5A {
			t.Fatalf("LoadByte after retag = %#x, want 0x5A", got)
		}
		if d := ts.m.Stats.Retags - before.Retags; d != 1 {
			t.Errorf("FOO's load after BAR's retag retagged %d pages, want 1", d)
		}
	})
}

// TestPKRUSwitchRevokesAccess checks that a PKRU switch revokes
// access: once FOO has reclaimed the page, BAR's next crossing runs under
// BAR's PKRU and must trap again even though it read the same page a
// moment ago.
func TestPKRUSwitchRevokesAccess(t *testing.T) {
	ts := bootPair(t, ModeFull)
	buf := ts.heapIn(t, "FOO", 64)
	barID := ts.cubs["BAR"].ID
	ts.enter(t, "FOO", func(e *Env) {
		e.StoreByte(buf, 0x7E)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 64)
		e.WindowOpen(wid, barID)
		h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar_read")
		h.Call(e, uint64(buf), 0)
		if got := e.LoadByte(buf); got != 0x7E { // FOO reclaims the page
			t.Fatalf("LoadByte = %#x, want 0x7E", got)
		}
		before := ts.m.Stats
		if got := h.Call(e, uint64(buf), 0)[0]; got != 0x7E {
			t.Fatalf("second bar_read = %#x, want 0x7E", got)
		}
		if d := ts.m.Stats.Faults - before.Faults; d != 1 {
			t.Errorf("BAR's second read took %d traps, want 1", d)
		}
	})
}

// TestRollbackRevokesWindowAccess checks containment rollback
// mid-crossing: the callee shares a buffer through a window and faults.
// The journal destroys the window, and the caller — on the same thread —
// must be denied the buffer the window covered: the trap finds no window.
func TestRollbackRevokesWindowAccess(t *testing.T) {
	ts := bootFaulty(t, DefaultRestartPolicy(), nil)
	appBuf := ts.heapIn(t, "APP", 8)
	ts.enter(t, "APP", func(e *Env) {
		// svc_leak allocates a buffer, opens a window on it for APP, then
		// faults.
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_leak")
		cf := CatchContained(func() { h.Call(e, uint64(appBuf)) })
		if cf == nil {
			t.Fatal("svc_leak fault was not contained")
		}
		err := Catch(func() { e.LoadByte(ts.leakBuf) })
		var pf *ProtectionFault
		if !errors.As(err, &pf) || pf.Reason != "no open window authorises the access" {
			t.Fatalf("APP read of SVC's shared buffer after rollback: got %v, want a no-window *ProtectionFault", err)
		}
	})
}

// TestRestartReclaimUnmapsOldHeap checks the nastiest staleness case:
// a cubicle restart unmaps (reclaims) its heap pages. An address into the
// old heap must fault "unmapped page" for everyone afterwards and never
// return the old frame's bytes.
func TestRestartReclaimUnmapsOldHeap(t *testing.T) {
	policy := DefaultRestartPolicy()
	ts := bootFaulty(t, policy, nil)
	appBuf := ts.heapIn(t, "APP", 8)

	var svcBuf vm.Addr
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_alloc")
		svcBuf = vm.Addr(h.Call(e, 64)[0])
		touch := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_touch")
		touch.Call(e, uint64(svcBuf))
	})

	// Fault SVC (it touches APP's unshared buffer), wait out the backoff,
	// and let the next call restart it — reclaiming the old heap.
	faultSVC(t, ts, appBuf)
	ts.m.Clock.Charge(policy.BackoffMax)
	if _, cf := callSVCOk(t, ts); cf != nil {
		t.Fatalf("restart call failed: %v", cf)
	}
	if ts.cubs["SVC"].Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", ts.cubs["SVC"].Restarts())
	}

	unmapped := func(who string, err error) {
		t.Helper()
		var pf *ProtectionFault
		if !errors.As(err, &pf) || pf.Reason != "unmapped page" {
			t.Errorf("%s access to reclaimed page: got %v, want an unmapped-page *ProtectionFault", who, err)
		}
	}
	ts.enter(t, "APP", func(e *Env) {
		h := ts.m.MustResolve(e.Cubicle(), "SVC", "svc_touch")
		if cf := CatchContained(func() { h.Call(e, uint64(svcBuf)) }); cf == nil {
			t.Error("SVC store to its reclaimed heap did not fault")
		} else {
			unmapped("SVC", cf)
		}
		unmapped("APP", Catch(func() { e.LoadByte(svcBuf) }))
	})
}

// TestViewChunking checks the zero-copy views: chunks tile the range in
// order and stay page-bounded.
func TestViewChunking(t *testing.T) {
	ts := bootPair(t, ModeFull)
	const n = 3*vm.PageSize + 123
	buf := ts.heapIn(t, "FOO", n)
	ts.enter(t, "FOO", func(e *Env) {
		e.Memset(buf, 0xCD, n)
		var total uint64
		chunks := 0
		e.View(buf, n, func(off uint64, chunk []byte) {
			if off != total {
				t.Fatalf("chunk off = %d, want %d", off, total)
			}
			if len(chunk) > vm.PageSize {
				t.Fatalf("chunk len %d exceeds a page", len(chunk))
			}
			for _, b := range chunk {
				if b != 0xCD {
					t.Fatalf("chunk byte %#x, want 0xCD", b)
				}
			}
			total += uint64(len(chunk))
			chunks++
		})
		if total != n {
			t.Fatalf("views covered %d bytes, want %d", total, n)
		}
		if chunks < 4 {
			t.Fatalf("range crossing 3 page boundaries yielded %d chunks", chunks)
		}
	})
}

// checkedOps runs a byte-coded op sequence against a booted system and
// checks two properties after every op: it ended in a value or in a typed
// *ProtectionFault / *APIError, and every byte read back equals what the
// shadow map says the last successful write to that address stored.
func checkedOps(t *testing.T, ts *testSystem, data []byte) {
	t.Helper()
	addrs := []vm.Addr{ts.heapIn(t, "FOO", 2*vm.PageSize)}
	barID := ts.cubs["BAR"].ID
	shadow := map[vm.Addr]byte{}
	i := 0
	next := func() uint64 {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return uint64(b)
	}
	// ok reports whether the op completed; a fault of any other type than
	// the two the API documents fails the run.
	ok := func(what string, err error) bool {
		var pf *ProtectionFault
		var ae *APIError
		if err != nil && !errors.As(err, &pf) && !errors.As(err, &ae) {
			t.Fatalf("%s: untyped fault %T: %v", what, err, err)
		}
		return err == nil
	}
	read := func(what string, a vm.Addr, got byte) {
		if want, known := shadow[a]; known && got != want {
			t.Fatalf("%s %#x = %#x, shadow says %#x", what, uint64(a), got, want)
		}
	}
	for step := 0; i < len(data) && step < 64; step++ {
		op := next()
		ts.enter(t, "FOO", func(e *Env) {
			switch op % 8 {
			case 0: // alloc another buffer
				if len(addrs) < 8 {
					addrs = append(addrs, e.HeapAlloc(next()*64+1))
				}
			case 1: // store byte, possibly off the end of the buffer
				a := addrs[int(next())%len(addrs)].Add(next() * 37)
				if ok("store", Catch(func() { e.StoreByte(a, byte(op)) })) {
					shadow[a] = byte(op)
				}
			case 2: // load byte
				a := addrs[int(next())%len(addrs)].Add(next() * 37)
				var v byte
				if ok("load", Catch(func() { v = e.LoadByte(a) })) {
					read("load", a, v)
				}
			case 3: // memset crossing page boundaries
				a := addrs[int(next())%len(addrs)].Add(next())
				n := next() * 19
				if ok("memset", Catch(func() { e.Memset(a, byte(op), n) })) {
					for k := uint64(0); k < n; k++ {
						shadow[a.Add(k)] = byte(op)
					}
				}
			case 4: // memcpy between tracked buffers
				dst := addrs[int(next())%len(addrs)].Add(next())
				src := addrs[int(next())%len(addrs)].Add(next())
				n := next() * 11
				if ok("memcpy", Catch(func() { e.Memcpy(dst, src, n) })) {
					type cell struct {
						v     byte
						known bool
					}
					moved := make([]cell, n) // memmove semantics on overlap
					for k := range moved {
						moved[k].v, moved[k].known = shadow[src.Add(uint64(k))]
					}
					for k, c := range moved {
						if c.known {
							shadow[dst.Add(uint64(k))] = c.v
						} else {
							delete(shadow, dst.Add(uint64(k)))
						}
					}
				}
			case 5: // cross-cubicle call: BAR stores 0xAA through a pointer
				a := addrs[int(next())%len(addrs)]
				off := next() % 64
				h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar")
				if ok("bar", Catch(func() { h.Call(e, uint64(a), off) })) {
					shadow[a.Add(off)] = 0xAA
				}
			case 6: // open a window, let BAR read through it, close it
				a := addrs[int(next())%len(addrs)]
				ok("window op", Catch(func() {
					wid := e.WindowInit()
					e.WindowAdd(wid, a, 64)
					e.WindowOpen(wid, barID)
					h := ts.m.MustResolve(e.Cubicle(), "BAR", "bar_read")
					off := next() % 64
					read("window read", a.Add(off), byte(h.Call(e, uint64(a), off)[0]))
					e.WindowClose(wid, barID)
					e.WindowDestroy(wid)
				}))
			case 7: // wrapping / huge length
				a := addrs[int(next())%len(addrs)]
				if ok("memset-wrap", Catch(func() { e.Memset(a, 0, ^uint64(0)-next()) })) {
					t.Fatalf("memset wrapping the address space at %#x succeeded", uint64(a))
				}
			}
		})
	}
}

// FuzzSpanTLBDifferential drives byte-coded op sequences through one
// freshly booted system under checkedOps. The name is the key of the
// checked-in corpus (testdata/fuzz/FuzzSpanTLBDifferential) and of the CI
// slots that run it; there is no TLB and no second system to differ from.
func FuzzSpanTLBDifferential(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 3, 1, 1, 5, 3, 0, 2, 200, 4, 0, 1, 1, 2, 100})
	f.Add([]byte{6, 0, 5, 5, 0, 6, 0, 9, 1, 0, 120, 2, 0, 120})
	f.Add([]byte{7, 0, 3, 0, 255, 255, 7, 1, 16})
	f.Add([]byte{5, 0, 6, 0, 1, 1, 0, 90, 2, 0, 90, 3, 0, 4, 40, 4, 1, 0, 0, 3, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkedOps(t, bootPair(t, ModeFull), data)
	})
}
