package cubicle

import (
	"cubicleos/internal/mpk"
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// Env is the execution environment handed to component code: every memory
// access, allocation and window operation a component performs goes
// through it, which is where the simulated MPK permission checks (and the
// trap-and-map handler behind them) are applied.
//
// Env plays the role of the CPU executing untrusted component code: loads
// and stores are checked against the thread's PKRU register exactly as the
// memory-management unit would check them.
type Env struct {
	M *Monitor
	T *Thread
}

// NewEnv pairs a monitor with a thread.
func (m *Monitor) NewEnv(t *Thread) *Env { return &Env{M: m, T: t} }

// RunAs switches the thread into cubicle id — the way an application's
// public main is entered at boot — runs fn with that cubicle's
// privileges, and returns any isolation fault fn raised as an error.
func (m *Monitor) RunAs(e *Env, id ID, fn func(e *Env)) error {
	e.T.pushFrame(id, true)
	defer e.T.popFrame()
	if m.Mode.MPKEnabled() {
		m.wrpkru(e.T, m.pkruFor(id))
	}
	return Catch(func() { fn(e) })
}

// Ret returns v as an entry point's result words. Up to retWords words are
// copied into the thread's result scratch, so returning allocates nothing;
// the slice is valid until the thread's next Handle.Call (see Fn). More
// words than the scratch holds get a slice of their own.
func (e *Env) Ret(v ...uint64) []uint64 {
	if len(v) > retWords {
		return append([]uint64(nil), v...)
	}
	n := copy(e.T.ret[:], v)
	return e.T.ret[:n:n]
}

// Cubicle returns the cubicle whose privileges the code is running with.
func (e *Env) Cubicle() ID { return e.T.cur }

// Caller returns the cubicle that performed the innermost cross-cubicle
// call into the current one.
func (e *Env) Caller() ID { return e.T.Caller() }

// CubicleOf returns the cubicle hosting the named component. All cubicle
// IDs are known at link time, so components legitimately embed them in
// window-open calls (Figure 2: "open_window(BUF, RAMFS)").
func (e *Env) CubicleOf(component string) ID {
	c, ok := e.M.compOf[component]
	if !ok {
		panic(&APIError{Cubicle: e.T.cur, Op: "cubicle_of", Reason: "unknown component " + component})
	}
	return c.ID
}

// Work charges n cycles of modelled CPU work (computation that is
// identical across all isolation modes, scaled by the deployment's
// runtime-efficiency factor).
func (e *Env) Work(n uint64) {
	e.M.Clock.ChargeWork(n)
	if e.M.sup != nil {
		// Modelled work is a watchdog checkpoint: it is how a runaway
		// callee burns cycles without otherwise entering the monitor.
		e.M.sup.watchdog(e.T)
	}
}

// WorkN charges k units of n cycles of modelled CPU work: the clock ends
// where k calls of Work(n) leave it, but the watchdog checkpoint runs
// once, after the whole advance, so a budget that trips part-way is
// noticed up to (k-1) units late. For a loop whose
// units are a few cycles each; with k = 0 nothing happens.
func (e *Env) WorkN(n, k uint64) {
	if k == 0 {
		return
	}
	e.M.Clock.ChargeWorkN(n, k)
	if e.M.sup != nil {
		e.M.sup.watchdog(e.T)
	}
}

// --- Checked memory access -------------------------------------------------
//
// Every accessor below is resolveSpan (the per-page permission walk, which
// charges nothing unless it traps) followed by one address-space call that
// moves the bytes.

// Read copies len(b) bytes at addr into b, after access checks.
func (e *Env) Read(addr vm.Addr, b []byte) {
	n := uint64(len(b))
	if n == 0 {
		return
	}
	e.M.resolveSpan(e.T, mpk.AccessRead, addr, n)
	if err := e.M.AS.ReadAt(addr, b); err != nil {
		panic(&ProtectionFault{Addr: addr, Access: mpk.AccessRead, Cubicle: e.T.cur,
			Owner: vm.NoOwner, Reason: err.Error()})
	}
}

// Write copies b to memory at addr, after access checks.
func (e *Env) Write(addr vm.Addr, b []byte) {
	n := uint64(len(b))
	if n == 0 {
		return
	}
	e.M.resolveSpan(e.T, mpk.AccessWrite, addr, n)
	if err := e.M.AS.WriteAt(addr, b); err != nil {
		panic(&ProtectionFault{Addr: addr, Access: mpk.AccessWrite, Cubicle: e.T.cur,
			Owner: vm.NoOwner, Reason: err.Error()})
	}
}

// View checks read access to [addr, addr+n) and passes fn zero-copy views
// of its bytes, one chunk per page crossed, in address order (off is the
// chunk's offset from addr). The slices alias simulated memory: they are
// valid only for the duration of the call and must not be written or
// retained: a chunk of a page never written aliases the zero frame every
// such page shares (vm.Span), so a write through it would change them
// all. This is the bulk read primitive for component hot loops — no
// intermediate buffer, no per-byte walk.
func (e *Env) View(addr vm.Addr, n uint64, fn func(off uint64, chunk []byte)) {
	if n == 0 {
		return
	}
	e.M.resolveSpan(e.T, mpk.AccessRead, addr, n)
	if err := e.M.AS.Span(addr, n, fn); err != nil {
		panic(&ProtectionFault{Addr: addr, Access: mpk.AccessRead, Cubicle: e.T.cur,
			Owner: vm.NoOwner, Reason: err.Error()})
	}
}

// LoadByte reads one byte.
func (e *Env) LoadByte(addr vm.Addr) byte {
	var b [1]byte
	e.Read(addr, b[:])
	return b[0]
}

// StoreByte writes one byte.
func (e *Env) StoreByte(addr vm.Addr, v byte) {
	b := [1]byte{v}
	e.Write(addr, b[:])
}

// chargeCopy charges the streaming cost of moving n bytes.
func (e *Env) chargeCopy(n uint64) {
	e.M.Clock.Charge(((n + 15) / 16) * e.M.Costs.CopyChunk16)
	e.M.note(trace.EvCopy, e.T, e.T.cur, 0, n, 0, "")
}

// TraceMark records an application-level trace marker (a no-op when
// tracing is disabled). Pass constant labels so the hot path stays
// allocation-free.
func (e *Env) TraceMark(label string) {
	e.M.note(trace.EvMark, e.T, e.T.cur, 0, 0, 0, label)
}

// Memcpy copies n bytes from src to dst with access checks on both sides
// and streaming cost accounting. This is the LIBC memcpy of Figure 2 ❹:
// when called from another cubicle it executes with that cubicle's
// privileges, so the checks run against the caller's PKRU. The whole source
// span is checked before the whole destination span, then the bytes move
// page-chunk by page-chunk between the backing arrays — no intermediate
// buffer. Overlapping ranges keep the old copy-through-a-buffer semantics
// (memmove).
func (e *Env) Memcpy(dst, src vm.Addr, n uint64) {
	if n == 0 {
		return
	}
	e.M.resolveSpan(e.T, mpk.AccessRead, src, n)
	e.M.resolveSpan(e.T, mpk.AccessWrite, dst, n)
	e.chargeCopy(n)
	if uint64(src) < uint64(dst)+n && uint64(dst) < uint64(src)+n {
		buf := make([]byte, n)
		if err := e.M.AS.ReadAt(src, buf); err != nil {
			panic(err)
		}
		if err := e.M.AS.WriteAt(dst, buf); err != nil {
			panic(err)
		}
		return
	}
	for done := uint64(0); done < n; {
		sa, da := src.Add(done), dst.Add(done)
		sp, dp := e.M.AS.Page(sa), e.M.AS.Page(da)
		so, do := sa.PageOff(), da.PageOff()
		k := n - done
		if r := vm.PageSize - so; k > r {
			k = r
		}
		if r := vm.PageSize - do; k > r {
			k = r
		}
		copy(e.M.AS.Writable(dp)[do:do+k], sp.Bytes()[so:so+k])
		done += k
	}
}

// Memset fills n bytes at dst with c.
func (e *Env) Memset(dst vm.Addr, c byte, n uint64) {
	if n == 0 {
		return
	}
	e.M.resolveSpan(e.T, mpk.AccessWrite, dst, n)
	e.chargeCopy(n)
	for done := uint64(0); done < n; {
		da := dst.Add(done)
		p := e.M.AS.Page(da)
		off := da.PageOff()
		k := n - done
		if r := vm.PageSize - off; k > r {
			k = r
		}
		chunk := e.M.AS.Writable(p)[off : off+k]
		chunk[0] = c
		for i := 1; i < len(chunk); i *= 2 {
			copy(chunk[i:], chunk[:i])
		}
		done += k
	}
}

// --- Allocation -------------------------------------------------------------

// HeapAlloc allocates n bytes from the current cubicle's private
// sub-allocator; the pages backing it are owned by and tagged for the
// current cubicle.
func (e *Env) HeapAlloc(n uint64) vm.Addr {
	return e.M.cubicle(e.T.cur).heap.alloc(n)
}

// HeapFree releases an allocation made by HeapAlloc in the same cubicle.
func (e *Env) HeapFree(addr vm.Addr) {
	e.M.cubicle(e.T.cur).heap.free(addr)
}

// --- Window API (Table 1) ----------------------------------------------------

// WindowInit initialises an empty window owned by the current cubicle
// (cubicle_window_init).
func (e *Env) WindowInit() WID {
	wid := e.M.windowInit(e.T, e.T.cur)
	if e.M.sup != nil {
		e.T.journal = append(e.T.journal, undoEntry{kind: undoDestroyWindow,
			owner: e.T.cur, wid: wid})
	}
	return wid
}

// WindowAdd associates the memory range [ptr, ptr+size) with window wid
// (cubicle_window_add). The memory must be owned by the current cubicle.
func (e *Env) WindowAdd(wid WID, ptr vm.Addr, size uint64) {
	e.M.windowAdd(e.T, e.T.cur, wid, ptr, size)
}

// WindowRemove removes the range starting at ptr from window wid
// (cubicle_window_remove). No component calls it; it stays because Table 1
// of the paper is the API surface.
func (e *Env) WindowRemove(wid WID, ptr vm.Addr) {
	e.M.windowRemove(e.T, e.T.cur, wid, ptr)
}

// WindowOpen allows cubicle cid to access the contents of window wid
// (cubicle_window_open).
func (e *Env) WindowOpen(wid WID, cid ID) {
	if e.M.windowOpen(e.T, e.T.cur, wid, cid) && e.M.sup != nil {
		e.T.journal = append(e.T.journal, undoEntry{kind: undoCloseWindow,
			owner: e.T.cur, wid: wid, grantee: cid})
	}
}

// WindowClose disallows cubicle cid from accessing window wid
// (cubicle_window_close). Pages are not retagged eagerly: causal tag
// consistency (§5.6).
func (e *Env) WindowClose(wid WID, cid ID) {
	e.M.windowClose(e.T, e.T.cur, wid, cid)
}

// WindowCloseAll disallows all accesses to wid from other cubicles
// (cubicle_window_close_all).
func (e *Env) WindowCloseAll(wid WID) {
	e.M.windowCloseAll(e.T, e.T.cur, wid)
}

// WindowDestroy destroys window wid (cubicle_window_destroy).
func (e *Env) WindowDestroy(wid WID) {
	e.M.windowDestroy(e.T, e.T.cur, wid)
}
