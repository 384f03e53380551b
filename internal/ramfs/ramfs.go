// Package ramfs is the RAMFS component: Unikraft's in-memory file-system
// backend, the cubicle whose separation from VFSCORE is the paper's
// headline partitioning experiment (Figures 9 and 10). File data lives in
// simulated memory pages obtained through the configured allocator
// (RAMFS's own sub-allocator in the SQLite deployment, ALLOC in the NGINX
// deployment); data moves between caller buffers and file pages through
// the shared LIBC memcpy, executing with RAMFS's privileges (Figure 2 ❹).
package ramfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/snapshot"
	"cubicleos/internal/spare"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/ulibc"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "RAMFS"

// maxCount bounds each count a Snapshot blob carries (inodes, an inode's
// pages or children): a blob claiming more is corrupt.
const maxCount = 1 << 20

// DefaultOpWork models the ramfs path length per operation.
const DefaultOpWork = 100

// inode is one file or directory.
type inode struct {
	ino      uint64
	dir      bool
	size     uint64
	pages    []vm.Addr // one entry per PageSize chunk
	children map[string]uint64
	// name is the name create last linked the file under: a file created
	// again under it, from the spare list, links the same string.
	name string
}

// Module is the RAMFS component state.
type Module struct {
	inodes map[uint64]*inode
	next   uint64
	// spare holds unlinked files, each keeping its name and the capacity
	// of its page list for the next create: SQLite's journal is created
	// and unlinked by every transaction.
	spare  spare.List[inode]
	alloc  ualloc.Allocator
	libc   *ulibc.Client
	opWork uint64
	// path is readPath's scratch; snapInos and snapNames are Snapshot's.
	path      []byte
	snapInos  []uint64
	snapNames []string
	// OpCount counts backend operations.
	OpCount uint64
}

// New creates an empty RAMFS with a root directory. The allocator and
// LIBC client are injected at deployment wiring time (SetDeps).
func New() *Module {
	fs := &Module{inodes: make(map[uint64]*inode), next: 2, opWork: DefaultOpWork}
	fs.inodes[1] = &inode{ino: 1, dir: true, children: make(map[string]uint64)}
	return fs
}

// SetDeps wires the allocator strategy and LIBC client.
func (fs *Module) SetDeps(alloc ualloc.Allocator, libc *ulibc.Client) {
	fs.alloc = alloc
	fs.libc = libc
}

// Reset discards all file-system state, restoring the empty post-New
// image: it is the component's supervisor restart hook. File pages
// obtained from a foreign allocator are not freed back — the faulted
// cubicle cannot be trusted to run teardown code, so a restart leaks
// them, exactly as a crashed process leaks what it never freed.
func (fs *Module) Reset() {
	fs.inodes = make(map[uint64]*inode)
	fs.inodes[1] = &inode{ino: 1, dir: true, children: make(map[string]uint64)}
	fs.next = 2
}

// SetOpWork overrides the per-operation path cost.
func (fs *Module) SetOpWork(c uint64) { fs.opWork = c }

// nextPart splits off path's first component: what precedes its next
// '/', skipping empty and "." components. ok is false when none is left.
func nextPart(path []byte) (part, rest []byte, ok bool) {
	for len(path) > 0 {
		part, path, _ = bytes.Cut(path, []byte("/"))
		if len(part) > 0 && string(part) != "." {
			return part, path, true
		}
	}
	return nil, nil, false
}

// walk resolves path to (parent inode, leaf name, leaf inode or nil). The
// leaf name is a view of path.
func (fs *Module) walk(path []byte) (*inode, []byte, *inode, uint64) {
	cur := fs.inodes[1]
	name, rest, ok := nextPart(path)
	if !ok {
		return nil, nil, cur, vfscore.EOK
	}
	for {
		if !cur.dir {
			return nil, nil, nil, vfscore.ENOTDIR
		}
		child, found := cur.children[string(name)]
		next, after, more := nextPart(rest)
		if !more {
			if !found {
				return cur, name, nil, vfscore.ENOENT
			}
			return cur, name, fs.inodes[child], vfscore.EOK
		}
		if !found {
			return nil, nil, nil, vfscore.ENOENT
		}
		cur = fs.inodes[child]
		name, rest = next, after
	}
}

// readPath reads the caller's path into the module's scratch buffer and
// returns it: valid until the next readPath.
func (fs *Module) readPath(e *cubicle.Env, ptr, n uint64) []byte {
	fs.path = fs.path[:0]
	e.View(vm.Addr(ptr), n, func(_ uint64, chunk []byte) { fs.path = append(fs.path, chunk...) })
	return fs.path
}

func errRet(e *cubicle.Env, errno uint64) []uint64 { return e.Ret(0, errno) }
func okRet(e *cubicle.Env, val uint64) []uint64    { return e.Ret(val, vfscore.EOK) }

func (fs *Module) lookup(e *cubicle.Env, ptr, n uint64) []uint64 {
	e.Work(fs.opWork)
	fs.OpCount++
	_, _, node, errno := fs.walk(fs.readPath(e, ptr, n))
	if errno != vfscore.EOK || node == nil {
		return errRet(e, uint64(errno))
	}
	return okRet(e, node.ino)
}

func (fs *Module) create(e *cubicle.Env, ptr, n uint64) []uint64 {
	e.Work(fs.opWork)
	fs.OpCount++
	parent, name, node, errno := fs.walk(fs.readPath(e, ptr, n))
	if node != nil {
		return errRet(e, vfscore.EEXIST)
	}
	if errno != vfscore.ENOENT || parent == nil {
		return errRet(e, uint64(errno))
	}
	node = fs.takeInode(fs.next, name)
	fs.next++
	fs.inodes[node.ino] = node
	parent.children[node.name] = node.ino
	return okRet(e, node.ino)
}

// takeInode returns a new file numbered ino and named name: the file
// unlink retired last when there is one, keeping the capacity of its page
// list and, when it was named name, its name string.
func (fs *Module) takeInode(ino uint64, name []byte) *inode {
	n := fs.spare.Take()
	key := n.name
	if key != string(name) {
		key = string(name)
	}
	*n = inode{ino: ino, pages: n.pages[:0], name: key}
	return n
}

func (fs *Module) unlink(e *cubicle.Env, ptr, n uint64) []uint64 {
	e.Work(fs.opWork)
	fs.OpCount++
	parent, name, node, errno := fs.walk(fs.readPath(e, ptr, n))
	if errno != vfscore.EOK || node == nil {
		return errRet(e, uint64(errno))
	}
	// The root has no parent to unlink it from.
	if parent == nil || node.dir && len(node.children) > 0 {
		return errRet(e, vfscore.EINVAL)
	}
	fs.releasePages(e, node)
	delete(parent.children, string(name))
	delete(fs.inodes, node.ino)
	if !node.dir {
		fs.spare.Put(node)
	}
	return okRet(e, 0)
}

func (fs *Module) releasePages(e *cubicle.Env, node *inode) {
	for _, p := range node.pages {
		fs.alloc.Free(e, p)
	}
	node.pages = node.pages[:0]
	node.size = 0
}

// ensurePages grows the page list to cover size bytes.
func (fs *Module) ensurePages(e *cubicle.Env, node *inode, size uint64) {
	need := int((size + vm.PageSize - 1) / vm.PageSize)
	for len(node.pages) < need {
		node.pages = append(node.pages, fs.alloc.Malloc(e, vm.PageSize))
	}
}

// zeroRange clears [from, to) within the file's allocated pages so that
// holes created by truncation or sparse writes read back as zeroes
// (fresh pages from the allocator may be recycled and carry old data).
func (fs *Module) zeroRange(e *cubicle.Env, node *inode, from, to uint64) {
	for off := from; off < to; {
		pi := off / vm.PageSize
		po := off % vm.PageSize
		chunk := vm.PageSize - po
		if chunk > to-off {
			chunk = to - off
		}
		if pi < uint64(len(node.pages)) {
			fs.libc.Memset(e, node.pages[pi].Add(po), 0, chunk)
		}
		off += chunk
	}
}

// pageAt returns the file page covering chunk pi, converting a page-table
// drift (size says the data exists, the page list says it does not — the
// signature of a fault interrupting a multi-step update) into a typed
// fault the supervisor can contain, instead of a raw Go index panic that
// would kill the simulator.
func (fs *Module) pageAt(e *cubicle.Env, node *inode, pi uint64) vm.Addr {
	if pi >= uint64(len(node.pages)) {
		panic(&cubicle.APIError{Cubicle: e.Cubicle(), Op: "ramfs_page",
			Reason: fmt.Sprintf("inode %d: size %d implies page %d but only %d allocated",
				node.ino, node.size, pi, len(node.pages))})
	}
	return node.pages[pi]
}

func (fs *Module) node(ino uint64) (*inode, uint64) {
	n, ok := fs.inodes[ino]
	if !ok {
		return nil, vfscore.ENOENT
	}
	return n, vfscore.EOK
}

func (fs *Module) read(e *cubicle.Env, ino, off, buf, n uint64) []uint64 {
	e.Work(fs.opWork)
	fs.OpCount++
	node, errno := fs.node(ino)
	if errno != vfscore.EOK {
		return errRet(e, errno)
	}
	if node.dir {
		return errRet(e, vfscore.EISDIR)
	}
	if off >= node.size {
		return okRet(e, 0)
	}
	if off+n > node.size {
		n = node.size - off
	}
	done := uint64(0)
	for done < n {
		pi := (off + done) / vm.PageSize
		po := (off + done) % vm.PageSize
		chunk := vm.PageSize - po
		if chunk > n-done {
			chunk = n - done
		}
		// Copy file page -> caller buffer via shared LIBC, running with
		// RAMFS's privileges: the caller buffer access trap-and-maps
		// against the caller's open window.
		fs.libc.Memcpy(e, vm.Addr(buf+done), fs.pageAt(e, node, pi).Add(po), chunk)
		done += chunk
	}
	return okRet(e, n)
}

func (fs *Module) write(e *cubicle.Env, ino, off, buf, n uint64) []uint64 {
	e.Work(fs.opWork)
	fs.OpCount++
	node, errno := fs.node(ino)
	if errno != vfscore.EOK {
		return errRet(e, errno)
	}
	if node.dir {
		return errRet(e, vfscore.EISDIR)
	}
	fs.ensurePages(e, node, off+n)
	if off > node.size {
		// Sparse write: the gap between the old end and the write offset
		// must read back as zeroes.
		fs.zeroRange(e, node, node.size, off)
	}
	done := uint64(0)
	for done < n {
		pi := (off + done) / vm.PageSize
		po := (off + done) % vm.PageSize
		chunk := vm.PageSize - po
		if chunk > n-done {
			chunk = n - done
		}
		fs.libc.Memcpy(e, fs.pageAt(e, node, pi).Add(po), vm.Addr(buf+done), chunk)
		done += chunk
	}
	if off+n > node.size {
		node.size = off + n
	}
	return okRet(e, n)
}

func (fs *Module) getSize(e *cubicle.Env, ino uint64) []uint64 {
	e.Work(fs.opWork)
	fs.OpCount++
	node, errno := fs.node(ino)
	if errno != vfscore.EOK {
		return errRet(e, errno)
	}
	return okRet(e, node.size)
}

func (fs *Module) setSize(e *cubicle.Env, ino, size uint64) []uint64 {
	e.Work(fs.opWork)
	fs.OpCount++
	node, errno := fs.node(ino)
	if errno != vfscore.EOK {
		return errRet(e, errno)
	}
	if node.dir {
		return errRet(e, vfscore.EISDIR)
	}
	if size == 0 {
		fs.releasePages(e, node)
		return okRet(e, 0)
	}
	fs.ensurePages(e, node, size)
	if size < node.size {
		keep := int((size + vm.PageSize - 1) / vm.PageSize)
		for _, p := range node.pages[keep:] {
			fs.alloc.Free(e, p)
		}
		node.pages = node.pages[:keep]
		// Zero the truncated tail of the last kept page so a later
		// extension reads back zeroes, as POSIX requires.
		if po := size % vm.PageSize; po != 0 && keep > 0 {
			fs.libc.Memset(e, node.pages[keep-1].Add(po), 0, vm.PageSize-po)
		}
	} else if size > node.size {
		fs.zeroRange(e, node, node.size, size)
	}
	node.size = size
	return okRet(e, 0)
}

// Snapshot serialises the file-system tree — inode metadata, page
// addresses and file CONTENT — into a deterministic blob for warm
// recovery. Content must travel in the blob because in the NGINX
// deployment file pages are owned by ALLOC: they are not part of RAMFS's
// own page image, and their bytes at restore time may postdate the
// checkpoint. Inodes and directory entries are emitted in sorted order so
// identical trees encode identically. The blob is sized once and file
// content appended straight out of simulated memory.
func (fs *Module) Snapshot(sc *cubicle.SnapCtx) ([]byte, error) {
	size := 8 + 8 + 4
	inos := fs.snapInos[:0]
	for ino, n := range fs.inodes {
		inos = append(inos, ino)
		size += 8 + 1 + 8 + 4 + 8*len(n.pages) + 4 + int(n.size)
		for name := range n.children {
			size += 4 + len(name) + 8
		}
	}
	fs.snapInos = inos
	b := slices.Grow(sc.Buf(), size)
	b = binary.LittleEndian.AppendUint64(b, fs.next)
	b = binary.LittleEndian.AppendUint64(b, fs.OpCount)
	slices.Sort(inos)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(inos)))
	for _, ino := range inos {
		n := fs.inodes[ino]
		b = binary.LittleEndian.AppendUint64(b, n.ino)
		if n.dir {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, n.size)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(n.pages)))
		for _, p := range n.pages {
			b = binary.LittleEndian.AppendUint64(b, uint64(p))
		}
		names := fs.snapNames[:0]
		for name := range n.children {
			names = append(names, name)
		}
		fs.snapNames = names
		slices.Sort(names)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
		for _, name := range names {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(name)))
			b = append(b, name...)
			b = binary.LittleEndian.AppendUint64(b, n.children[name])
		}
		// File content, page by page, via the monitor-privileged context.
		for off := uint64(0); off < n.size; {
			pi := off / vm.PageSize
			chunk := vm.PageSize - off%vm.PageSize
			if chunk > n.size-off {
				chunk = n.size - off
			}
			if pi >= uint64(len(n.pages)) {
				return nil, fmt.Errorf("ramfs: inode %d size %d exceeds its %d pages", n.ino, n.size, len(n.pages))
			}
			var err error
			if b, err = sc.AppendMem(b, n.pages[pi].Add(off%vm.PageSize), chunk); err != nil {
				return nil, err
			}
			off += chunk
		}
	}
	return b, nil
}

// Restore rebuilds the file-system tree from a Snapshot blob and writes
// every file's content back to its recorded page addresses. A malformed
// blob fails with a *snapshot.DecodeError and changes nothing. An unmapped
// page address (the owning allocator was itself restarted, or the page
// was reclaimed) fails the restore, and the supervisor falls back to the
// cold rebuild.
func (fs *Module) Restore(sc *cubicle.SnapCtx, blob []byte) error {
	r := snapshot.NewReader(blob)
	next := r.U64()
	opCount := r.U64()
	count := r.Count(maxCount, "inode")
	inodes := make(map[uint64]*inode, min(count, 1024))
	type writeback struct {
		addr vm.Addr
		data []byte
	}
	var wbs []writeback
	for i := uint32(0); i < count && r.Err() == nil; i++ {
		n := &inode{ino: r.U64(), dir: r.U8() == 1, size: r.U64()}
		npages := r.Count(maxCount, "page")
		for j := uint32(0); j < npages && r.Err() == nil; j++ {
			n.pages = append(n.pages, vm.Addr(r.U64()))
		}
		nchildren := r.Count(maxCount, "child")
		if n.dir || nchildren > 0 {
			n.children = make(map[string]uint64, min(nchildren, 1024))
		}
		for j := uint32(0); j < nchildren && r.Err() == nil; j++ {
			name := string(r.Take(int(r.Count(snapshot.MaxName, "name"))))
			n.children[name] = r.U64()
		}
		for off := uint64(0); off < n.size && r.Err() == nil; {
			pi := off / vm.PageSize
			chunk := vm.PageSize - off%vm.PageSize
			if chunk > n.size-off {
				chunk = n.size - off
			}
			if pi >= uint64(len(n.pages)) {
				r.Fail(fmt.Sprintf("inode %d content exceeds its pages", n.ino))
				break
			}
			data := r.Take(int(chunk))
			wbs = append(wbs, writeback{addr: n.pages[pi].Add(off % vm.PageSize), data: data})
			off += chunk
		}
		inodes[n.ino] = n
	}
	if err := r.Done(); err != nil {
		return err
	}
	if inodes[1] == nil || !inodes[1].dir {
		return r.Fail("no root directory")
	}
	// Parse-then-commit: simulated memory is only touched once the whole
	// blob validated, so a corrupt snapshot cannot half-apply.
	for _, wb := range wbs {
		if err := sc.WriteMem(wb.addr, wb.data); err != nil {
			return err
		}
	}
	fs.inodes = inodes
	fs.next = next
	fs.OpCount = opCount
	return nil
}

// Component returns the RAMFS component for the builder. Its exports form
// the backend callback table that VFSCORE invokes.
func (fs *Module) Component() *cubicle.Component {
	guard := func(op string, n int, fn func(e *cubicle.Env, a []uint64) []uint64) func(e *cubicle.Env, a []uint64) []uint64 {
		return func(e *cubicle.Env, a []uint64) []uint64 {
			cubicle.GuardArgs(e, op, a, n)
			return fn(e, a)
		}
	}
	return &cubicle.Component{
		Name:      Name,
		Kind:      cubicle.KindIsolated,
		OnRestart: fs.Reset,
		Snapshot:  fs.Snapshot,
		Restore:   fs.Restore,
		Exports: []cubicle.ExportDecl{
			{Name: "ramfs_lookup", RegArgs: 2, Fn: guard("ramfs_lookup", 2, func(e *cubicle.Env, a []uint64) []uint64 { return fs.lookup(e, a[0], a[1]) })},
			{Name: "ramfs_create", RegArgs: 2, Fn: guard("ramfs_create", 2, func(e *cubicle.Env, a []uint64) []uint64 { return fs.create(e, a[0], a[1]) })},
			{Name: "ramfs_read", RegArgs: 4, Fn: guard("ramfs_read", 4, func(e *cubicle.Env, a []uint64) []uint64 { return fs.read(e, a[0], a[1], a[2], a[3]) })},
			{Name: "ramfs_write", RegArgs: 4, Fn: guard("ramfs_write", 4, func(e *cubicle.Env, a []uint64) []uint64 { return fs.write(e, a[0], a[1], a[2], a[3]) })},
			{Name: "ramfs_getsize", RegArgs: 1, Fn: guard("ramfs_getsize", 1, func(e *cubicle.Env, a []uint64) []uint64 { return fs.getSize(e, a[0]) })},
			{Name: "ramfs_setsize", RegArgs: 2, Fn: guard("ramfs_setsize", 2, func(e *cubicle.Env, a []uint64) []uint64 { return fs.setSize(e, a[0], a[1]) })},
			{Name: "ramfs_unlink", RegArgs: 2, Fn: guard("ramfs_unlink", 2, func(e *cubicle.Env, a []uint64) []uint64 { return fs.unlink(e, a[0], a[1]) })},
			{Name: "ramfs_fsync", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(fs.opWork)
				fs.OpCount++
				return okRet(e, 0)
			}},
		},
	}
}

// BackendTable resolves RAMFS's exports into a VFSCORE backend callback
// table on behalf of the VFSCORE cubicle — the load-time interposition of
// §5.2.
func BackendTable(m *cubicle.Monitor, vfsCubicle cubicle.ID) vfscore.Backend {
	return vfscore.Backend{
		Lookup:  m.MustResolve(vfsCubicle, Name, "ramfs_lookup"),
		Create:  m.MustResolve(vfsCubicle, Name, "ramfs_create"),
		Read:    m.MustResolve(vfsCubicle, Name, "ramfs_read"),
		Write:   m.MustResolve(vfsCubicle, Name, "ramfs_write"),
		GetSize: m.MustResolve(vfsCubicle, Name, "ramfs_getsize"),
		SetSize: m.MustResolve(vfsCubicle, Name, "ramfs_setsize"),
		Unlink:  m.MustResolve(vfsCubicle, Name, "ramfs_unlink"),
		Fsync:   m.MustResolve(vfsCubicle, Name, "ramfs_fsync"),
	}
}
