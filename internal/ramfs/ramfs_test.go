package ramfs_test

import (
	"bytes"
	"fmt"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

func harness(t *testing.T, fn func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr)) {
	t.Helper()
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{{
		Name: "APP", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	err := s.RunAs("APP", func(e *cubicle.Env) {
		vfs := vfscore.NewClient(s.M, s.Cubs["APP"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		buf := e.HeapAlloc(4 * vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 4*vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
		fn(e, vfs, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnlinkRootIsEINVAL: every spelling of the root names the one inode
// no directory holds, so unlinking it fails with EINVAL, as for a
// non-empty directory, and leaves the tree whole: a create still works, and
// a path through a file is still ENOTDIR.
func TestUnlinkRootIsEINVAL(t *testing.T) {
	for _, path := range []string{"/", "", ".", "//"} {
		t.Run(fmt.Sprintf("%q", path), func(t *testing.T) {
			harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
				if errno := vfs.Unlink(e, path); errno != vfscore.EINVAL {
					t.Fatalf("unlink %q: errno %d, want EINVAL", path, errno)
				}
				fd, errno := vfs.Open(e, "/x", vfscore.OCreat|vfscore.ORdwr)
				if errno != vfscore.EOK {
					t.Fatalf("create /x after unlinking the root: errno %d", errno)
				}
				vfs.Close(e, fd)
				if _, errno := vfs.Open(e, "/x/y", vfscore.OCreat); errno != vfscore.ENOTDIR {
					t.Fatalf("create under a file: errno %d, want ENOTDIR", errno)
				}
			})
		})
	}
}

// setSize sets the size of the file at path through RAMFS's own exports,
// as VFSCORE's O_TRUNC does, with handles resolved for the calling
// cubicle. The path is staged at scratch, which RAMFS must be able to read.
func setSize(t *testing.T, e *cubicle.Env, scratch vm.Addr, path string, size uint64) {
	t.Helper()
	lookup := e.M.MustResolve(e.Cubicle(), ramfs.Name, "ramfs_lookup")
	setsize := e.M.MustResolve(e.Cubicle(), ramfs.Name, "ramfs_setsize")
	e.Write(scratch, []byte(path))
	r := lookup.Call(e, uint64(scratch), uint64(len(path)))
	if r[1] != vfscore.EOK {
		t.Fatalf("lookup %s: errno %d", path, r[1])
	}
	if r = setsize.Call(e, r[0], size); r[1] != vfscore.EOK {
		t.Fatalf("setsize %s to %d: errno %d", path, size, r[1])
	}
}

func TestTruncateZeroFillsOnExtend(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		fd, _ := vfs.Open(e, "/t", vfscore.OCreat|vfscore.ORdwr)
		e.Write(buf, bytes.Repeat([]byte{0xAB}, 100))
		vfs.PWrite(e, fd, buf, 100, 0)
		// Shrink, then extend past the old size.
		scratch := buf.Add(3 * vm.PageSize)
		setSize(t, e, scratch, "/t", 10)
		setSize(t, e, scratch, "/t", 50)
		e.Memset(buf, 0xFF, 50)
		n, _ := vfs.PRead(e, fd, buf, 50, 0)
		if n != 50 {
			t.Fatalf("read %d", n)
		}
		data := cubicletest.ReadBytes(e, buf, 50)
		for i := 0; i < 10; i++ {
			if data[i] != 0xAB {
				t.Fatalf("kept prefix corrupted at %d: %#x", i, data[i])
			}
		}
		for i := 10; i < 50; i++ {
			if data[i] != 0 {
				t.Fatalf("extended region not zero at %d: %#x", i, data[i])
			}
		}
	})
}

func TestSparseWriteReadsZeroGap(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		fd, _ := vfs.Open(e, "/s", vfscore.OCreat|vfscore.ORdwr)
		e.Write(buf, []byte("END"))
		// Write at a large offset: the gap reads back as zeroes.
		vfs.PWrite(e, fd, buf, 3, 9000)
		if size, _ := vfs.FStat(e, fd); size != 9003 {
			t.Fatalf("size %d", size)
		}
		n, _ := vfs.PRead(e, fd, buf, 100, 4500)
		if n != 100 {
			t.Fatalf("gap read %d", n)
		}
		for _, b := range cubicletest.ReadBytes(e, buf, 100) {
			if b != 0 {
				t.Fatal("gap not zero-filled")
			}
		}
	})
}

func TestLargeFileMultiPage(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		fd, _ := vfs.Open(e, "/big", vfscore.OCreat|vfscore.ORdwr)
		want := make([]byte, 3*vm.PageSize+77)
		for i := range want {
			want[i] = byte(i * 13)
		}
		e.Write(buf, want)
		if n, errno := vfs.PWrite(e, fd, buf, uint64(len(want)), 0); errno != vfscore.EOK || n != uint64(len(want)) {
			t.Fatalf("pwrite: n=%d errno=%d", n, errno)
		}
		e.Memset(buf, 0, uint64(len(want)))
		if n, _ := vfs.PRead(e, fd, buf, uint64(len(want)), 0); n != uint64(len(want)) {
			t.Fatalf("read back %d", n)
		}
		if !bytes.Equal(cubicletest.ReadBytes(e, buf, uint64(len(want))), want) {
			t.Fatal("multi-page content mismatch")
		}
	})
}

// TestRecreatedFileIsNew: a file unlinked and created again — under its
// name and under another, from the inode the unlink kept — is empty and
// reads as what is written to it, and a descriptor of the unlinked file
// no longer reaches it.
func TestRecreatedFileIsNew(t *testing.T) {
	harness(t, func(e *cubicle.Env, vfs *vfscore.Client, buf vm.Addr) {
		old, _ := vfs.Open(e, "/j", vfscore.OCreat|vfscore.ORdwr)
		e.Memset(buf, 0xAB, 2*vm.PageSize)
		vfs.PWrite(e, old, buf, 2*vm.PageSize, 0)
		for _, path := range []string{"/j", "/k"} {
			if errno := vfs.Unlink(e, "/j"); errno != vfscore.EOK {
				t.Fatalf("unlink /j: errno %d", errno)
			}
			if _, errno := vfs.Stat(e, "/j"); errno != vfscore.ENOENT {
				t.Fatalf("stat of the unlinked /j: errno %d, want ENOENT", errno)
			}
			fd, errno := vfs.Open(e, path, vfscore.OCreat|vfscore.ORdwr)
			if size, _ := vfs.FStat(e, fd); errno != vfscore.EOK || size != 0 {
				t.Fatalf("create %s after unlinking /j: errno %d, size %d", path, errno, size)
			}
			if _, errno := vfs.FStat(e, old); errno != vfscore.ENOENT {
				t.Fatalf("the unlinked file's descriptor after creating %s: errno %d, want ENOENT", path, errno)
			}
			e.Write(buf, []byte("new"))
			vfs.PWrite(e, fd, buf, 3, 0)
			e.Memset(buf, 0, 8)
			if n, _ := vfs.PRead(e, fd, buf, 8, 0); n != 3 || string(cubicletest.ReadBytes(e, buf, 3)) != "new" {
				t.Fatalf("%s reads %d bytes %q", path, n, cubicletest.ReadBytes(e, buf, n))
			}
			old = fd
		}
	})
}
