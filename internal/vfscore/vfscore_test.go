package vfscore_test

import (
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/trace"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// harness boots the FS stack and hands fn an app-side client with a
// windowed I/O buffer.
func harness(t *testing.T, fn func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr)) {
	t.Helper()
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, TraceEvents: 1 << 12, Extra: []*cubicle.Component{{
		Name: "APP", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	err := s.RunAs("APP", func(e *cubicle.Env) {
		vfs := vfscore.NewClient(s.M, s.Cubs["APP"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		buf := e.HeapAlloc(vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
		fn(e, vfs, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCloseInvalidatesFD(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		fd, _ := vfs.Open(e, "/f", vfscore.OCreat|vfscore.ORdwr)
		if errno := vfs.Close(e, fd); errno != vfscore.EOK {
			t.Fatalf("close: %d", errno)
		}
		if errno := vfs.Close(e, fd); errno != vfscore.EBADF {
			t.Fatalf("double close: %d", errno)
		}
		if _, errno := vfs.PRead(e, fd, buf, 1, 0); errno != vfscore.EBADF {
			t.Fatalf("pread closed fd: %d", errno)
		}
	})
}

func TestOpenTruncResets(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		fd, _ := vfs.Open(e, "/f", vfscore.OCreat|vfscore.OWronly)
		e.Write(buf, []byte("longcontent"))
		vfs.PWrite(e, fd, buf, 11, 0)
		vfs.Close(e, fd)
		fd, _ = vfs.Open(e, "/f", vfscore.OWronly|vfscore.OTrunc)
		if size, _ := vfs.FStat(e, fd); size != 0 {
			t.Fatalf("O_TRUNC left %d bytes", size)
		}
	})
}

func TestStatMissingAndFstatBad(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		if _, errno := vfs.Stat(e, "/ghost"); errno != vfscore.ENOENT {
			t.Fatalf("stat missing: %d", errno)
		}
		if _, errno := vfs.FStat(e, 12345); errno != vfscore.EBADF {
			t.Fatalf("fstat bad fd: %d", errno)
		}
	})
}

// TestUnalignedBufferProbesEveryPage: a page-sized read into a buffer
// that starts 16 bytes into a page covers two pages, and VFSCORE's uio
// set-up probes both: in full isolation it trap-and-maps two distinct
// pages of the caller's buffer.
func TestUnalignedBufferProbesEveryPage(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, _ vm.Addr) {
		raw := e.HeapAlloc(3 * vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, raw, 3*vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
		buf := vm.Addr((uint64(raw)+vm.PageSize-1)&^(vm.PageSize-1) + 16)
		fd, _ := vfs.Open(e, "/u", vfscore.OCreat|vfscore.ORdwr)
		start := e.M.Tracer().Recorded()
		if _, errno := vfs.PRead(e, fd, buf, vm.PageSize, 0); errno != vfscore.EOK {
			t.Fatalf("pread: %d", errno)
		}
		vfsID := int32(e.CubicleOf(vfscore.Name))
		pages := map[uint64]bool{}
		for _, ev := range e.M.Tracer().Events() {
			if ev.Seq >= start && ev.Kind == trace.EvFault && ev.Cubicle == vfsID {
				pages[ev.Arg/vm.PageSize] = true
			}
		}
		if len(pages) != 2 {
			t.Errorf("VFSCORE trap-and-mapped %d distinct pages of a buffer that spans 2", len(pages))
		}
	})
}

// TestWrapInterposition verifies the microkernel-baseline seam: a wrapped
// client routes every call through the wrapper.
func TestWrapInterposition(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		count := 0
		vfs.Wrap(func(name string, inner vfscore.Caller) vfscore.Caller {
			return countingCaller{inner: inner, n: &count}
		})
		fd, _ := vfs.Open(e, "/w", vfscore.OCreat|vfscore.ORdwr)
		e.Write(buf, []byte("x"))
		vfs.PWrite(e, fd, buf, 1, 0)
		vfs.Close(e, fd)
		if count != 3 {
			t.Fatalf("wrapper saw %d calls, want 3", count)
		}
	})
}

type countingCaller struct {
	inner vfscore.Caller
	n     *int
}

func (c countingCaller) Call(e *cubicle.Env, args ...uint64) []uint64 {
	*c.n++
	return c.inner.Call(e, args...)
}
