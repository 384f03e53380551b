package ualloc_test

import (
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/vm"
)

func bootWithApps(t *testing.T, names ...string) *boot.System {
	t.Helper()
	var extra []*cubicle.Component
	for _, n := range names {
		extra = append(extra, &cubicle.Component{
			Name: n, Kind: cubicle.KindIsolated,
			Exports: []cubicle.ExportDecl{{Name: "main_" + n,
				Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
		})
	}
	return boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Extra: extra})
}

func TestAllocMallocIsUsableByClient(t *testing.T) {
	s := bootWithApps(t, "A")
	err := s.RunAs("A", func(e *cubicle.Env) {
		c := ualloc.NewClient(s.M, s.Cubs["A"].ID)
		buf := c.Malloc(e, 1000)
		if buf == 0 {
			t.Fatal("malloc returned null")
		}
		// The memory is ALLOC-owned but windowed to A: accesses
		// trap-and-map onto A's key.
		e.Memset(buf, 0x5A, 1000)
		if e.LoadByte(buf.Add(999)) != 0x5A {
			t.Error("allocation not writable/readable")
		}
		p := s.M.AS.Page(buf)
		if p.Owner != int(s.Cubs["ALLOC"].ID) {
			t.Errorf("page owner = %d, want ALLOC", p.Owner)
		}
		c.Free(e, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocClientsDoNotSharePages(t *testing.T) {
	s := bootWithApps(t, "A", "B")
	var bufA vm.Addr
	if err := s.RunAs("A", func(e *cubicle.Env) {
		c := ualloc.NewClient(s.M, s.Cubs["A"].ID)
		bufA = c.Malloc(e, 64)
		e.Memset(bufA, 1, 64)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAs("B", func(e *cubicle.Env) {
		c := ualloc.NewClient(s.M, s.Cubs["B"].ID)
		bufB := c.Malloc(e, 64)
		e.Memset(bufB, 2, 64)
		if bufA.PageNum() == bufB.PageNum() {
			t.Fatal("allocations for different clients share a page")
		}
		// B must not be able to touch A's ALLOC-backed buffer.
		if fault := cubicle.Catch(func() { e.LoadByte(bufA) }); fault == nil {
			t.Error("B read A's ALLOC-backed buffer")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocShareUnshare(t *testing.T) {
	s := bootWithApps(t, "A", "B")
	var buf vm.Addr
	if err := s.RunAs("A", func(e *cubicle.Env) {
		c := ualloc.NewClient(s.M, s.Cubs["A"].ID)
		buf = c.Malloc(e, vm.PageSize) // page-aligned shared buffer
		e.Memset(buf, 0x77, vm.PageSize)
		c.Share(e, buf, s.Cubs["B"].ID)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAs("B", func(e *cubicle.Env) {
		if got := e.LoadByte(buf.Add(10)); got != 0x77 {
			t.Errorf("shared read = %#x", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// A's access retags the page back to A; sharing it again with B opens
	// no second window (B's bit is set), and B still reads it.
	var windowOps uint64
	if err := s.RunAs("A", func(e *cubicle.Env) {
		_ = e.LoadByte(buf)
		windowOps = s.M.Stats.WindowOps
		ualloc.NewClient(s.M, s.Cubs["A"].ID).Share(e, buf, s.Cubs["B"].ID)
		windowOps = s.M.Stats.WindowOps - windowOps
	}); err != nil {
		t.Fatal(err)
	}
	if windowOps != 0 {
		t.Errorf("sharing again made %d window operations, want 0", windowOps)
	}
	if err := s.RunAs("B", func(e *cubicle.Env) {
		if got := e.LoadByte(buf.Add(10)); got != 0x77 {
			t.Errorf("read after sharing again = %#x", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreeErrors(t *testing.T) {
	s := bootWithApps(t, "A")
	err := s.RunAs("A", func(e *cubicle.Env) {
		c := ualloc.NewClient(s.M, s.Cubs["A"].ID)
		buf := c.Malloc(e, 32)
		c.Free(e, buf)
		if fault := cubicle.Catch(func() { c.Free(e, buf) }); fault == nil {
			t.Error("double free via ALLOC succeeded")
		}
		if fault := cubicle.Catch(func() { c.Share(e, vm.Addr(0xdead000), s.Cubs["A"].ID) }); fault == nil {
			t.Error("share of unallocated address succeeded")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocReuseAfterFree(t *testing.T) {
	s := bootWithApps(t, "A")
	err := s.RunAs("A", func(e *cubicle.Env) {
		c := ualloc.NewClient(s.M, s.Cubs["A"].ID)
		a := c.Malloc(e, 128)
		c.Free(e, a)
		b := c.Malloc(e, 128)
		if a != b {
			t.Errorf("freed ALLOC block not reused: %#x vs %#x", uint64(a), uint64(b))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLocalAllocatorShare: a Local allocation is the caller's own heap
// memory, so the caller shares it through a window of its own.
func TestLocalAllocatorShare(t *testing.T) {
	s := bootWithApps(t, "A", "B")
	var local ualloc.Local
	var buf vm.Addr
	var wid cubicle.WID
	if err := s.RunAs("A", func(e *cubicle.Env) {
		buf = local.Malloc(e, vm.PageSize)
		e.Memset(buf, 0x42, vm.PageSize)
		if owner := s.M.AS.Page(buf).Owner; owner != int(s.Cubs["A"].ID) {
			t.Errorf("local page owned by %d, want A", owner)
		}
		wid = e.WindowInit()
		e.WindowAdd(wid, buf, vm.PageSize)
		e.WindowOpen(wid, s.Cubs["B"].ID)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAs("B", func(e *cubicle.Env) {
		if got := e.LoadByte(buf); got != 0x42 {
			t.Errorf("shared local read = %#x", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAs("A", func(e *cubicle.Env) {
		e.WindowDestroy(wid)
		local.Free(e, buf)
		_ = e.LoadByte(buf)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunAs("B", func(e *cubicle.Env) {
		if fault := cubicle.Catch(func() { e.LoadByte(buf) }); fault == nil {
			t.Error("B reads local buffer after its window was destroyed")
		}
	}); err != nil {
		t.Fatal(err)
	}
}
