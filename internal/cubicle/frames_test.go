package cubicle

import (
	"bytes"
	"testing"

	"cubicleos/internal/isa"
	"cubicleos/internal/snapshot"
	"cubicleos/internal/vm"
)

// TestFirstWriteGivesAFrame: a heap page is mapped without a frame, and
// the first write through each of the monitor's writers gives it one
// holding exactly what was written. A Memcpy source stays frame-less.
func TestFirstWriteGivesAFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, ts *testSystem, dst vm.Addr) // stores 0x5A at dst
	}{
		{"Env.Write", func(t *testing.T, ts *testSystem, dst vm.Addr) {
			ts.enter(t, "BAR", func(e *Env) { e.StoreByte(dst, 0x5A) })
		}},
		{"Env.Memset", func(t *testing.T, ts *testSystem, dst vm.Addr) {
			ts.enter(t, "BAR", func(e *Env) { e.Memset(dst, 0x5A, 1) })
		}},
		{"Env.Memcpy destination", func(t *testing.T, ts *testSystem, dst vm.Addr) {
			ts.enter(t, "BAR", func(e *Env) {
				src := e.HeapAlloc(vm.PageSize)
				e.Memcpy(dst.Add(1), src, 8) // from a page never written
				if e.M.AS.Page(src).Resident() {
					t.Error("a Memcpy source was given a frame")
				}
				e.StoreByte(dst, 0x5A)
			})
		}},
		{"SnapCtx.WriteMem", func(t *testing.T, ts *testSystem, dst vm.Addr) {
			sc := &SnapCtx{m: ts.m, Cubicle: ts.cubs["BAR"].ID}
			if err := sc.WriteMem(dst, []byte{0x5A}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := bootPair(t, ModeFull)
			dst := ts.heapIn(t, "BAR", 64)
			p := ts.m.AS.Page(dst)
			if p.Resident() {
				t.Fatal("a fresh heap page holds a frame")
			}
			tc.write(t, ts, dst)
			if !p.Resident() {
				t.Fatal("the first write gave the page no frame")
			}
			want := make([]byte, vm.PageSize)
			want[0] = 0x5A
			if got := p.Bytes(); !bytes.Equal(got[:], want) {
				t.Errorf("the page reads % x…, want 5a then zeros", got[:16])
			}
		})
	}
}

// TestLoadedPagesHoldFrames: what the loader and the trampoline installer
// write — section bytes, trampoline thunks, guard pages — sits in frames
// of its own, and a guard page reads its wrpkru.
func TestLoadedPagesHoldFrames(t *testing.T) {
	ts := bootPair(t, ModeFull)
	h := ts.m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar_read") // installs FOO's guard
	guard := h.tr.GuardAddr(ts.cubs["FOO"].ID)
	if guard == 0 {
		t.Fatal("no guard page installed")
	}
	if code := ts.m.AS.Page(guard).Bytes(); !bytes.HasPrefix(code[:], isa.OpWRPKRU) {
		t.Error("the guard page does not start with wrpkru")
	}
	var code, global int
	ts.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		switch p.Type {
		case vm.PageCode:
			code++
		case vm.PageGlobal:
			global++
		default:
			return
		}
		if !p.Resident() {
			t.Errorf("%v page %#x, written at load, holds no frame", p.Type, pn<<vm.PageShift)
		}
	})
	if code <= len(ts.m.Trampolines()) || global == 0 {
		t.Errorf("%d code and %d global pages: the loader mapped too few to test", code, global)
	}
}

// TestCheckpointOfUnwrittenPages: a heap page never written is captured
// as the all-zero page an embedded array used to give, so the image is
// byte-identical; a warm restart restores it without a frame, and the
// written pages with theirs.
func TestCheckpointOfUnwrittenPages(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc := w.cubs["SVC"]
	if _, cf := w.call(t, "svc_set", 42); cf != nil { // writes one heap byte
		t.Fatal(cf)
	}
	w.m.Clock.Charge(ckptTestInterval)
	if _, cf := w.call(t, "svc_get"); cf != nil {
		t.Fatal(cf)
	}
	rec := w.m.ckpts[svc.ID]
	if rec == nil {
		t.Fatal("no checkpoint")
	}
	img, err := snapshot.Decode(rec.img)
	if err != nil {
		t.Fatal(err)
	}
	written := w.buf.PageNum()
	var unwritten int
	for i := range img.Pages {
		pi := &img.Pages[i]
		if pi.PN == written {
			continue
		}
		unwritten++
		if w.m.AS.Page(vm.PageAddr(pi.PN)).Resident() {
			t.Fatalf("heap page %#x holds a frame nothing wrote", pi.PN)
		}
		pi.Data = [vm.PageSize]byte{}
	}
	if unwritten == 0 {
		t.Fatal("the checkpoint holds no unwritten heap page")
	}
	if !bytes.Equal(snapshot.AppendEncode(nil, img), rec.img) {
		t.Error("unwritten pages did not encode as all-zero pages")
	}

	w.faultAndExpire(t)
	if ret, cf := w.call(t, "svc_get"); cf != nil || ret[1] != 42 {
		t.Fatalf("after the warm restart: %v, %v; want the heap byte 42", ret, cf)
	}
	if w.m.Stats.WarmRestarts != 1 {
		t.Fatalf("WarmRestarts = %d, want 1", w.m.Stats.WarmRestarts)
	}
	for _, pi := range img.Pages {
		if got, want := w.m.AS.Page(vm.PageAddr(pi.PN)).Resident(), pi.PN == written; got != want {
			t.Errorf("restored page %#x resident = %v, want %v", pi.PN, got, want)
		}
	}
}
