package boot

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// appComponent returns a minimal application component (public main).
func appComponent() *cubicle.Component {
	return &cubicle.Component{
		Name: "APP",
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "main", Fn: func(e *cubicle.Env, args []uint64) []uint64 { return nil }},
		},
	}
}

// appIO is the application-side I/O state: a page-aligned buffer windowed
// to VFSCORE and RAMFS ahead of time (the nested-call rule).
type appIO struct {
	vfs *vfscore.Client
	buf vm.Addr
	n   uint64
}

func newAppIO(t *testing.T, s *System, e *cubicle.Env, size uint64) *appIO {
	t.Helper()
	io := &appIO{vfs: vfscore.NewClient(s.M, s.Cubs["APP"].ID), n: size}
	io.buf = e.HeapAlloc(size)
	wid := e.WindowInit()
	e.WindowAdd(wid, io.buf, size)
	e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
	e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
	io.vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
	return io
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestFSStackAllModes(t *testing.T) {
	for _, mode := range []cubicle.Mode{
		cubicle.ModeUnikraft, cubicle.ModeTrampoline, cubicle.ModeNoACL, cubicle.ModeFull,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			s := MustNewFS(Config{Mode: mode, Extra: []*cubicle.Component{appComponent()}})
			err := s.RunAs("APP", func(e *cubicle.Env) {
				io := newAppIO(t, s, e, 64*1024)
				vfs := io.vfs

				fd, errno := vfs.Open(e, "/file.bin", vfscore.OCreat|vfscore.ORdwr)
				if errno != vfscore.EOK {
					t.Fatalf("open: errno %d", errno)
				}
				want := pattern(10000, 3)
				e.Write(io.buf, want)
				n, errno := vfs.PWrite(e, fd, io.buf, uint64(len(want)), 0)
				if errno != vfscore.EOK || n != uint64(len(want)) {
					t.Fatalf("pwrite: n=%d errno=%d", n, errno)
				}
				vfs.Close(e, fd)

				size, errno := vfs.Stat(e, "/file.bin")
				if errno != vfscore.EOK || size != uint64(len(want)) {
					t.Fatalf("stat: size=%d errno=%d", size, errno)
				}

				fd, errno = vfs.Open(e, "/file.bin", vfscore.ORdwr)
				if errno != vfscore.EOK {
					t.Fatalf("reopen: errno %d", errno)
				}
				e.Memset(io.buf, 0, uint64(len(want)))
				n, errno = vfs.PRead(e, fd, io.buf, uint64(len(want)), 0)
				if errno != vfscore.EOK || n != uint64(len(want)) {
					t.Fatalf("pread: n=%d errno=%d", n, errno)
				}
				if got := cubicletest.ReadBytes(e, io.buf, n); !bytes.Equal(got, want) {
					t.Fatal("read-back mismatch")
				}
				// Reads at or past EOF return 0.
				n, errno = vfs.PRead(e, fd, io.buf, 100, uint64(len(want)))
				if errno != vfscore.EOK || n != 0 {
					t.Fatalf("pread at EOF: n=%d errno=%d", n, errno)
				}
				// A partial read mid-file.
				n, _ = vfs.PRead(e, fd, io.buf, 16, 5000)
				if n != 16 || !bytes.Equal(cubicletest.ReadBytes(e, io.buf, 16), want[5000:5016]) {
					t.Fatal("pread at 5000 mismatch")
				}

				// Overwrite in place and read the bytes back.
				e.Write(io.buf, []byte("OVERLAY"))
				if n, errno := vfs.PWrite(e, fd, io.buf, 7, 100); errno != vfscore.EOK || n != 7 {
					t.Fatalf("pwrite: n=%d errno=%d", n, errno)
				}
				if n, errno := vfs.PRead(e, fd, io.buf.Add(100), 7, 100); errno != vfscore.EOK || n != 7 {
					t.Fatalf("pread: n=%d errno=%d", n, errno)
				} else if string(cubicletest.ReadBytes(e, io.buf.Add(100), 7)) != "OVERLAY" {
					t.Fatal("pread mismatch")
				}
				if size, _ := vfs.FStat(e, fd); size != uint64(len(want)) {
					t.Fatalf("size after overwrite = %d", size)
				}
				if errno := vfs.FSync(e, fd); errno != vfscore.EOK {
					t.Fatalf("fsync: errno %d", errno)
				}
				vfs.Close(e, fd)

				// Unlink.
				if errno := vfs.Unlink(e, "/file.bin"); errno != vfscore.EOK {
					t.Fatalf("unlink: errno %d", errno)
				}
				if _, errno := vfs.Stat(e, "/file.bin"); errno != vfscore.ENOENT {
					t.Fatal("unlinked file still present")
				}

				// Error paths.
				if _, errno := vfs.Open(e, "/nope", vfscore.ORdonly); errno != vfscore.ENOENT {
					t.Errorf("open missing: errno %d", errno)
				}
				if _, errno := vfs.PRead(e, 999, io.buf, 1, 0); errno != vfscore.EBADF {
					t.Errorf("pread bad fd: errno %d", errno)
				}
				if _, errno := vfs.Open(e, "/nodir/x", vfscore.OCreat); errno != vfscore.ENOENT {
					t.Errorf("create in missing dir: errno %d", errno)
				}
			})
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}

			// Structural checks.
			appID := s.Cubs["APP"].ID
			vfsID := s.Cubs[vfscore.Name].ID
			ramfsID := s.Cubs[ramfs.Name].ID
			if s.M.Stats.Calls[cubicle.Edge{From: appID, To: vfsID}] == 0 {
				t.Error("no APP->VFSCORE calls recorded")
			}
			if s.M.Stats.Calls[cubicle.Edge{From: vfsID, To: ramfsID}] == 0 {
				t.Error("no VFSCORE->RAMFS calls recorded")
			}
			if mode.MPKEnabled() && s.M.Stats.Faults == 0 {
				t.Error("MPK mode took no faults")
			}
			if !mode.MPKEnabled() && s.M.Stats.Faults != 0 {
				t.Error("non-MPK mode took faults")
			}
		})
	}
}

// TestFSStackIsolationHolds: without the app window, RAMFS cannot reach
// the app's buffer — the write call faults rather than corrupting.
func TestFSStackIsolationHolds(t *testing.T) {
	s := MustNewFS(Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{appComponent()}})
	err := s.RunAs("APP", func(e *cubicle.Env) {
		vfs := vfscore.NewClient(s.M, s.Cubs["APP"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		buf := e.HeapAlloc(4096) // NOT windowed
		fd, errno := vfs.Open(e, "/f", vfscore.OCreat|vfscore.ORdwr)
		if errno != vfscore.EOK {
			t.Fatalf("open: %d", errno)
		}
		e.Write(buf, []byte("secret"))
		fault := cubicle.Catch(func() { vfs.PWrite(e, fd, buf, 6, 0) })
		if fault == nil {
			t.Fatal("RAMFS read the app buffer without a window")
		}
		if _, ok := fault.(*cubicle.ProtectionFault); !ok {
			t.Fatalf("got %T, want *ProtectionFault", fault)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFSStackGrouped boots the CubicleOS-3 style deployment (VFSCORE and
// RAMFS fused) and checks the fused calls are no longer crossings.
func TestFSStackGrouped(t *testing.T) {
	s := MustNewFS(Config{
		Mode:   cubicle.ModeFull,
		Groups: map[string]string{vfscore.Name: "CORE", ramfs.Name: "CORE"},
		Extra:  []*cubicle.Component{appComponent()},
	})
	if s.Cubs[vfscore.Name] != s.Cubs[ramfs.Name] {
		t.Fatal("grouping did not fuse VFSCORE and RAMFS")
	}
	err := s.RunAs("APP", func(e *cubicle.Env) {
		io := newAppIOGrouped(t, s, e)
		fd, errno := io.vfs.Open(e, "/g", vfscore.OCreat|vfscore.ORdwr)
		if errno != vfscore.EOK {
			t.Fatalf("open: %d", errno)
		}
		e.Write(io.buf, []byte("grouped"))
		if n, errno := io.vfs.PWrite(e, fd, io.buf, 7, 0); errno != vfscore.EOK || n != 7 {
			t.Fatalf("pwrite: n=%d errno=%d", n, errno)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	core := s.Cubs[vfscore.Name].ID
	for edge := range s.M.Stats.Calls {
		if edge.From == core && edge.To == core {
			t.Error("intra-group call recorded as crossing")
		}
	}
}

func newAppIOGrouped(t *testing.T, s *System, e *cubicle.Env) *appIO {
	t.Helper()
	io := &appIO{vfs: vfscore.NewClient(s.M, s.Cubs["APP"].ID), n: 4096}
	io.buf = e.HeapAlloc(4096)
	wid := e.WindowInit()
	e.WindowAdd(wid, io.buf, 4096)
	e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
	io.vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
	return io
}

// TestFSStackViaAlloc boots the NGINX-style deployment where RAMFS gets
// file pages from the ALLOC component.
func TestFSStackViaAlloc(t *testing.T) {
	s := MustNewFS(Config{Mode: cubicle.ModeFull, RamfsViaAlloc: true,
		Extra: []*cubicle.Component{appComponent()}})
	err := s.RunAs("APP", func(e *cubicle.Env) {
		io := newAppIO(t, s, e, 16*1024)
		fd, errno := io.vfs.Open(e, "/a", vfscore.OCreat|vfscore.ORdwr)
		if errno != vfscore.EOK {
			t.Fatalf("open: %d", errno)
		}
		want := pattern(9000, 9)
		e.Write(io.buf, want)
		if n, errno := io.vfs.PWrite(e, fd, io.buf, uint64(len(want)), 0); errno != vfscore.EOK || n != uint64(len(want)) {
			t.Fatalf("pwrite: n=%d errno=%d", n, errno)
		}
		e.Memset(io.buf, 0, uint64(len(want)))
		if n, errno := io.vfs.PRead(e, fd, io.buf, uint64(len(want)), 0); errno != vfscore.EOK || n != uint64(len(want)) {
			t.Fatalf("pread: n=%d errno=%d", n, errno)
		}
		if !bytes.Equal(cubicletest.ReadBytes(e, io.buf, uint64(len(want))), want) {
			t.Fatal("alloc-backed read-back mismatch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ramfsID := s.Cubs[ramfs.Name].ID
	allocID := s.Cubs["ALLOC"].ID
	if s.M.Stats.Calls[cubicle.Edge{From: ramfsID, To: allocID}] == 0 {
		t.Error("RAMFS never called ALLOC in via-alloc deployment")
	}
}

// TestModeLadderFS: identical FS workload gets monotonically more
// expensive up the isolation ladder (the structure behind Figure 6).
func TestModeLadderFS(t *testing.T) {
	var costs [4]uint64
	modes := []cubicle.Mode{cubicle.ModeUnikraft, cubicle.ModeTrampoline, cubicle.ModeNoACL, cubicle.ModeFull}
	for i, mode := range modes {
		s := MustNewFS(Config{Mode: mode, Extra: []*cubicle.Component{appComponent()}})
		err := s.RunAs("APP", func(e *cubicle.Env) {
			io := newAppIO(t, s, e, 8192)
			fd, _ := io.vfs.Open(e, "/w", vfscore.OCreat|vfscore.ORdwr)
			for r := 0; r < 50; r++ {
				e.Write(io.buf, pattern(4096, byte(r)))
				io.vfs.PWrite(e, fd, io.buf, 4096, uint64(r)*4096)
			}
			io.vfs.Close(e, fd)
		})
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = s.M.Clock.Cycles()
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] {
			t.Errorf("mode %v (%d cycles) not more expensive than %v (%d)",
				modes[i], costs[i], modes[i-1], costs[i-1])
		}
	}
}

// TestCooperativeTasksInterleaved runs two application tasks the way the
// Unikraft threading model does, cooperatively on one host thread: a writer
// streaming records into a file and a reader polling for them, both
// crossing the isolated FS stack, alternating step by step.
func TestCooperativeTasksInterleaved(t *testing.T) {
	s := MustNewFS(Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{appComponent()}})
	var io *appIO
	if err := s.RunAs("APP", func(e *cubicle.Env) {
		io = newAppIO(t, s, e, 8192)
	}); err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	written, read := 0, 0
	for idle := 0; written < rounds || read < rounds; {
		progress := written < rounds
		if progress {
			err := s.RunAs("APP", func(e *cubicle.Env) {
				fd, errno := io.vfs.Open(e, "/stream", vfscore.OCreat|vfscore.OWronly)
				if errno != vfscore.EOK {
					t.Fatalf("open: %d", errno)
				}
				// Append: write at the end the file has now.
				end, _ := io.vfs.FStat(e, fd)
				e.Write(io.buf, []byte{byte(written)})
				io.vfs.PWrite(e, fd, io.buf, 1, end)
				io.vfs.Close(e, fd)
			})
			if err != nil {
				t.Fatal(err)
			}
			written++
		}
		var size uint64
		if err := s.RunAs("APP", func(e *cubicle.Env) {
			size, _ = io.vfs.Stat(e, "/stream")
		}); err != nil {
			t.Fatal(err)
		}
		read = int(size)
		// The reader blocks (makes no progress) until the first record lands.
		if progress || read > 0 {
			idle = 0
		} else if idle++; idle >= 100 {
			t.Fatalf("tasks stalled: written=%d read=%d", written, read)
		}
	}
	// Verify the stream contents survived the interleaving.
	if err := s.RunAs("APP", func(e *cubicle.Env) {
		fd, _ := io.vfs.Open(e, "/stream", vfscore.ORdonly)
		n, _ := io.vfs.PRead(e, fd, io.buf, 8192, 0)
		if n != rounds {
			t.Fatalf("stream has %d bytes, want %d", n, rounds)
		}
		data := cubicletest.ReadBytes(e, io.buf, n)
		for i := range data {
			if data[i] != byte(i) {
				t.Fatalf("stream[%d] = %d", i, data[i])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRingPastBoundIsAnError: a trace or metrics ring past trace.MaxRing
// fails the boot with an error, before any ring is made, instead of
// hanging or exhausting memory making it.
func TestRingPastBoundIsAnError(t *testing.T) {
	for _, cfg := range []Config{{TraceEvents: math.MaxInt}, {MetricsInterval: 1, MetricsRing: math.MaxInt}} {
		cfg.Mode = cubicle.ModeFull
		if _, err := NewFS(cfg); err == nil || !strings.Contains(err.Error(), "at most") {
			t.Errorf("NewFS(%+v) = %v, want a ring-bound error", cfg, err)
		}
	}
}
