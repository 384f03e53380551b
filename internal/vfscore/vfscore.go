// Package vfscore is the VFSCORE component: Unikraft's virtual file
// system layer. It owns the file-descriptor table and forwards operations
// to a file-system backend through a callback table — exactly the
// interposition point the paper's builder rewrites so that backend calls
// become cross-cubicle calls (§5.2: "in the case of callback tables, we
// modify the source code of a component to ensure that the pointer on
// each callback is resolved as a dynamic symbol at load time").
//
// Data buffers are passed through to the backend by pointer, zero-copy:
// a caller that wants VFS and the backend to touch its buffer must open
// its window for both cubicles ahead of time (the nested-call rule,
// §5.6).
package vfscore

import (
	"slices"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "VFSCORE"

// Errno values returned in the second result word of every VFS and
// backend operation (0 = success).
const (
	EOK     = 0
	ENOENT  = 2
	EBADF   = 9
	EEXIST  = 17
	ENOTDIR = 20
	EISDIR  = 21
	EINVAL  = 22
	ENOSPC  = 28
)

// Open flags (subset of POSIX).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
)

// DefaultOpWork models the vfscore path length per operation (vnode
// lookup, fd table, locking) — part of the library OS inefficiency the
// paper measures against Linux. Deployments may override it via SetOpWork
// to model differently optimised kernels.
const DefaultOpWork = 150

// Caller abstracts an invocable cross-component entry point. Resolved
// cubicle handles satisfy it directly; the microkernel baseline wraps
// them with message-passing IPC costs.
type Caller interface {
	Call(e *cubicle.Env, args ...uint64) []uint64
}

// call invokes c. A resolved handle — every caller but the microkernel
// baseline's wrappers and tests' — is called as what it is, so that args
// stay on the caller's stack: through the interface they would escape, a
// heap object a file-system call and two for each read or write of a page.
func call(e *cubicle.Env, c Caller, args ...uint64) []uint64 {
	if h, ok := c.(cubicle.Handle); ok {
		return h.Call(e, args...)
	}
	return c.Call(e, slices.Clone(args)...)
}

// Backend is the callback table filled in by the file-system backend at
// initialisation time. Every entry is a resolved cross-cubicle handle (or
// an IPC-wrapped equivalent), so invoking a callback transparently
// crosses into the backend's compartment.
type Backend struct {
	Lookup  Caller // (pathPtr, pathLen) -> (ino, errno)
	Create  Caller // (pathPtr, pathLen) -> (ino, errno)
	Read    Caller // (ino, off, buf, n) -> (n', errno)
	Write   Caller // (ino, off, buf, n) -> (n', errno)
	GetSize Caller // (ino) -> (size, errno)
	SetSize Caller // (ino, size) -> (_, errno)
	Unlink  Caller // (pathPtr, pathLen) -> (_, errno)
	Fsync   Caller // (ino) -> (_, errno)
}

// WrapBackend returns a copy of b with every callback replaced by
// w(name, original) — the VFS→backend seam of the microkernel baseline's
// 4-component configuration.
func WrapBackend(b Backend, w func(name string, inner Caller) Caller) Backend {
	return Backend{
		Lookup:  w("lookup", b.Lookup),
		Create:  w("create", b.Create),
		Read:    w("read", b.Read),
		Write:   w("write", b.Write),
		GetSize: w("getsize", b.GetSize),
		SetSize: w("setsize", b.SetSize),
		Unlink:  w("unlink", b.Unlink),
		Fsync:   w("fsync", b.Fsync),
	}
}

// Module is the VFSCORE component state.
type Module struct {
	backend Backend
	// fds maps an open descriptor to its inode: every data call passes
	// its offset, so a descriptor holds no position.
	fds map[uint64]uint64
	// path is touchPath's scratch: the caller's path is read into it.
	path   []byte
	nextFD uint64
	opWork uint64
	// OpCount counts VFS operations (observability for experiments).
	OpCount uint64
}

// New creates the VFS with an empty backend table; call SetBackend before
// use (the loader-time callback interposition).
func New() *Module {
	return &Module{fds: make(map[uint64]uint64), nextFD: 3, opWork: DefaultOpWork} // fds 0-2 reserved
}

// SetOpWork overrides the per-operation path cost.
func (v *Module) SetOpWork(c uint64) { v.opWork = c }

// SetBackend installs the backend callback table.
func (v *Module) SetBackend(b Backend) { v.backend = b }

// touchPath reads the caller's path buffer: the vnode-cache lookup of a
// real VFS. Under MPK this is VFSCORE's first access to a caller-owned
// page and trap-and-maps against the caller's window.
func (v *Module) touchPath(e *cubicle.Env, ptr, n uint64) {
	v.path = slices.Grow(v.path[:0], int(n))[:n]
	e.Read(vm.Addr(ptr), v.path)
}

// touchBuf sets up the uio for a data buffer (address validation, first
// page probe) — one access per page the operation covers, as vfscore's
// uio iteration does. Under MPK these accesses trap-and-map the buffer
// pages onto VFSCORE's key before the backend retags them again, which
// is precisely the extra cost Figure 10 attributes to separating the
// backend from the VFS.
func (v *Module) touchBuf(e *cubicle.Env, ptr, n uint64) {
	for a, end := ptr, ptr+n; a < end; a = a&^(vm.PageSize-1) + vm.PageSize {
		_ = e.LoadByte(vm.Addr(a))
	}
}

func errRet(e *cubicle.Env, errno uint64) []uint64 { return e.Ret(0, errno) }
func okRet(e *cubicle.Env, val uint64) []uint64    { return e.Ret(val, EOK) }

func (v *Module) open(e *cubicle.Env, pathPtr, pathLen, flags uint64) []uint64 {
	e.Work(v.opWork)
	v.OpCount++
	v.touchPath(e, pathPtr, pathLen)
	rets := call(e, v.backend.Lookup, pathPtr, pathLen)
	ino, errno := rets[0], rets[1]
	switch {
	case errno == ENOENT && flags&OCreat != 0:
		rets = call(e, v.backend.Create, pathPtr, pathLen)
		ino, errno = rets[0], rets[1]
		if errno != EOK {
			return errRet(e, errno)
		}
	case errno != EOK:
		return errRet(e, errno)
	}
	if flags&OTrunc != 0 {
		if r := call(e, v.backend.SetSize, ino, 0); r[1] != EOK {
			return errRet(e, r[1])
		}
	}
	fd := v.nextFD
	v.nextFD++
	v.fds[fd] = ino
	return okRet(e, fd)
}

// inode returns the inode open as fd.
func (v *Module) inode(fd uint64) (uint64, uint64) {
	ino, ok := v.fds[fd]
	if !ok {
		return 0, EBADF
	}
	return ino, EOK
}

func (v *Module) pread(e *cubicle.Env, fd, buf, n, off uint64) []uint64 {
	e.Work(v.opWork)
	v.OpCount++
	ino, errno := v.inode(fd)
	if errno != EOK {
		return errRet(e, errno)
	}
	v.touchBuf(e, buf, n)
	return call(e, v.backend.Read, ino, off, buf, n)
}

func (v *Module) pwrite(e *cubicle.Env, fd, buf, n, off uint64) []uint64 {
	e.Work(v.opWork)
	v.OpCount++
	ino, errno := v.inode(fd)
	if errno != EOK {
		return errRet(e, errno)
	}
	v.touchBuf(e, buf, n)
	return call(e, v.backend.Write, ino, off, buf, n)
}

// Component returns the VFSCORE component for the builder.
func (v *Module) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "vfs_open", RegArgs: 3, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return v.open(e, a[0], a[1], a[2])
			}},
			{Name: "vfs_close", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(v.opWork)
				v.OpCount++
				if _, errno := v.inode(a[0]); errno != EOK {
					return errRet(e, errno)
				}
				delete(v.fds, a[0])
				return okRet(e, 0)
			}},
			{Name: "vfs_pread", RegArgs: 4, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return v.pread(e, a[0], a[1], a[2], a[3])
			}},
			{Name: "vfs_pwrite", RegArgs: 4, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return v.pwrite(e, a[0], a[1], a[2], a[3])
			}},
			{Name: "vfs_stat", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(v.opWork)
				v.OpCount++
				r := call(e, v.backend.Lookup, a[0], a[1])
				if r[1] != EOK {
					return errRet(e, r[1])
				}
				return call(e, v.backend.GetSize, r[0])
			}},
			{Name: "vfs_fstat", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(v.opWork)
				v.OpCount++
				ino, errno := v.inode(a[0])
				if errno != EOK {
					return errRet(e, errno)
				}
				return call(e, v.backend.GetSize, ino)
			}},
			{Name: "vfs_fsync", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(v.opWork)
				v.OpCount++
				ino, errno := v.inode(a[0])
				if errno != EOK {
					return errRet(e, errno)
				}
				return call(e, v.backend.Fsync, ino)
			}},
			{Name: "vfs_unlink", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(v.opWork)
				v.OpCount++
				return call(e, v.backend.Unlink, a[0], a[1])
			}},
		},
	}
}

// Client is typed, ergonomic access to VFSCORE from another cubicle. The
// path helpers stage path strings in a caller-owned transfer buffer whose
// window is opened for VFSCORE and the backend ahead of time — this is
// the bulk of the "porting effort" the paper quantifies for NGINX and
// SQLite (§6.2).
type Client struct {
	open, close_, pread, pwrite, stat, fstat, fsync, unlink Caller
	pathBuf                                                 vm.Addr
	pathBufSize                                             uint64
}

// Wrap replaces every entry point with w(name, original); the
// microkernel baseline uses this to interpose message-passing costs on
// the application→VFS boundary.
func (c *Client) Wrap(w func(name string, inner Caller) Caller) {
	c.open = w("vfs_open", c.open)
	c.close_ = w("vfs_close", c.close_)
	c.pread = w("vfs_pread", c.pread)
	c.pwrite = w("vfs_pwrite", c.pwrite)
	c.stat = w("vfs_stat", c.stat)
	c.fstat = w("vfs_fstat", c.fstat)
	c.fsync = w("vfs_fsync", c.fsync)
	c.unlink = w("vfs_unlink", c.unlink)
}

// PathBufSize is the size of the client's path transfer buffer.
const PathBufSize = vm.PageSize

// NewClient resolves VFSCORE for the caller cubicle. The caller must
// invoke InitBuffers from inside its own cubicle before using the path
// helpers.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		open:   m.MustResolve(caller, Name, "vfs_open"),
		close_: m.MustResolve(caller, Name, "vfs_close"),
		pread:  m.MustResolve(caller, Name, "vfs_pread"),
		pwrite: m.MustResolve(caller, Name, "vfs_pwrite"),
		stat:   m.MustResolve(caller, Name, "vfs_stat"),
		fstat:  m.MustResolve(caller, Name, "vfs_fstat"),
		fsync:  m.MustResolve(caller, Name, "vfs_fsync"),
		unlink: m.MustResolve(caller, Name, "vfs_unlink"),
	}
}

// InitBuffers allocates the page-aligned path transfer buffer and opens
// its window for VFSCORE and the backend cubicles. Must run with the
// caller cubicle's privileges.
func (c *Client) InitBuffers(e *cubicle.Env, backendCubicles ...cubicle.ID) {
	c.pathBuf = e.HeapAlloc(PathBufSize)
	c.pathBufSize = PathBufSize
	wid := e.WindowInit()
	e.WindowAdd(wid, c.pathBuf, c.pathBufSize)
	e.WindowOpen(wid, e.CubicleOf(Name))
	for _, cid := range backendCubicles {
		e.WindowOpen(wid, cid)
	}
}

// stagePath writes the path into the transfer buffer.
func (c *Client) stagePath(e *cubicle.Env, path string) (vm.Addr, uint64) {
	if c.pathBuf == 0 {
		panic("vfscore.Client: InitBuffers not called")
	}
	if uint64(len(path)) > c.pathBufSize {
		panic("vfscore.Client: path too long")
	}
	e.Write(c.pathBuf, []byte(path))
	return c.pathBuf, uint64(len(path))
}

// Open opens path with flags; returns the fd and errno.
func (c *Client) Open(e *cubicle.Env, path string, flags uint64) (uint64, uint64) {
	p, n := c.stagePath(e, path)
	r := call(e, c.open, uint64(p), n, flags)
	return r[0], r[1]
}

// Close closes fd.
func (c *Client) Close(e *cubicle.Env, fd uint64) uint64 {
	return call(e, c.close_, fd)[1]
}

// PRead reads up to n bytes at offset off into buf; returns bytes read
// and errno.
func (c *Client) PRead(e *cubicle.Env, fd uint64, buf vm.Addr, n, off uint64) (uint64, uint64) {
	r := call(e, c.pread, fd, uint64(buf), n, off)
	return r[0], r[1]
}

// PWrite writes n bytes from buf at offset off; returns bytes written and
// errno.
func (c *Client) PWrite(e *cubicle.Env, fd uint64, buf vm.Addr, n, off uint64) (uint64, uint64) {
	r := call(e, c.pwrite, fd, uint64(buf), n, off)
	return r[0], r[1]
}

// Stat returns the size of the file at path and errno.
func (c *Client) Stat(e *cubicle.Env, path string) (uint64, uint64) {
	p, n := c.stagePath(e, path)
	r := call(e, c.stat, uint64(p), n)
	return r[0], r[1]
}

// FStat returns the size of the open file and errno.
func (c *Client) FStat(e *cubicle.Env, fd uint64) (uint64, uint64) {
	r := call(e, c.fstat, fd)
	return r[0], r[1]
}

// FSync flushes the file.
func (c *Client) FSync(e *cubicle.Env, fd uint64) uint64 {
	return call(e, c.fsync, fd)[1]
}

// Unlink removes the file at path.
func (c *Client) Unlink(e *cubicle.Env, path string) uint64 {
	p, n := c.stagePath(e, path)
	return call(e, c.unlink, uint64(p), n)[1]
}
