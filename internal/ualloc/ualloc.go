// Package ualloc is the ALLOC component: the system-wide memory allocator
// of the paper's deployments. In the NGINX deployment every component
// allocates through ALLOC (making it the hottest cubicle in Figure 5); in
// the SQLite deployment each cubicle uses its own allocation library and
// ALLOC serves only coarse-grained allocations (Figure 8).
//
// ALLOC owns the arena pages it hands out and therefore manages one
// window per client cubicle covering that client's arenas, opened for the
// client — the client's accesses then trap-and-map onto its own key. A
// client that wants to pass an ALLOC-owned buffer to a third cubicle asks
// ALLOC to share it (the nested-call rule of §5.6: only the owner of the
// memory can open windows onto it, so sharing must be arranged by ALLOC
// "ahead of time").
package ualloc

import (
	"fmt"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "ALLOC"

// arenaBytes is the granularity at which ALLOC grows a client's arena.
const arenaBytes = 64 * vm.PageSize

// mallocWork models the allocator's own bookkeeping cost per operation.
const mallocWork = 60

type block struct {
	addr vm.Addr
	size uint64
}

// clientState is ALLOC's per-client bookkeeping: the client's arenas are
// covered by one window opened for that client only, so distinct clients
// never share pages.
type clientState struct {
	window cubicle.WID
	opened bool
	free   []block
	sizes  map[vm.Addr]uint64
	shares map[vm.Addr]*shareState
	// arena is the client's arena footprint in bytes. Arenas are never
	// returned to the monitor, so this is also the client's high-water
	// mark — the quantity ClientQuota caps.
	arena uint64
}

type shareState struct {
	wid    cubicle.WID
	size   uint64
	openTo map[cubicle.ID]bool
}

// Module is the ALLOC component state.
type Module struct {
	clients map[cubicle.ID]*clientState
	// ClientQuota caps each client's arena footprint in bytes (0 =
	// unlimited). Exceeding it raises a *cubicle.QuotaFault attributed to
	// the client — a transient, contained overload signal, not a crash.
	ClientQuota uint64
}

// New creates the ALLOC module.
func New() *Module {
	return &Module{clients: make(map[cubicle.ID]*clientState)}
}

func (a *Module) client(e *cubicle.Env, id cubicle.ID) *clientState {
	cs, ok := a.clients[id]
	if !ok {
		cs = &clientState{
			window: e.WindowInit(),
			sizes:  make(map[vm.Addr]uint64),
			shares: make(map[vm.Addr]*shareState),
		}
		a.clients[id] = cs
	}
	return cs
}

// insertFree adds a block to the client free list with coalescing.
func (cs *clientState) insertFree(b block) {
	i := 0
	for i < len(cs.free) && cs.free[i].addr < b.addr {
		i++
	}
	cs.free = append(cs.free, block{})
	copy(cs.free[i+1:], cs.free[i:])
	cs.free[i] = b
	if i+1 < len(cs.free) && cs.free[i].addr.Add(cs.free[i].size) == cs.free[i+1].addr {
		cs.free[i].size += cs.free[i+1].size
		cs.free = append(cs.free[:i+1], cs.free[i+2:]...)
	}
	if i > 0 && cs.free[i-1].addr.Add(cs.free[i-1].size) == cs.free[i].addr {
		cs.free[i-1].size += cs.free[i].size
		cs.free = append(cs.free[:i], cs.free[i+1:]...)
	}
}

// malloc allocates size bytes for the calling cubicle.
func (a *Module) malloc(e *cubicle.Env, size uint64) vm.Addr {
	e.Work(mallocWork)
	if size == 0 {
		size = 1
	}
	caller := e.Caller()
	cs := a.client(e, caller)
	align := uint64(16)
	if size >= vm.PageSize {
		align = vm.PageSize
	}
	size = (size + 15) &^ 15
	for pass := 0; pass < 2; pass++ {
		for i := range cs.free {
			b := cs.free[i]
			start := (uint64(b.addr) + align - 1) &^ (align - 1)
			pad := start - uint64(b.addr)
			if b.size < pad+size {
				continue
			}
			cs.free = append(cs.free[:i], cs.free[i+1:]...)
			if pad > 0 {
				cs.insertFree(block{addr: b.addr, size: pad})
			}
			if rem := b.size - pad - size; rem > 0 {
				cs.insertFree(block{addr: vm.Addr(start + size), size: rem})
			}
			cs.sizes[vm.Addr(start)] = size
			return vm.Addr(start)
		}
		// Grow: a fresh page-aligned arena owned by ALLOC, added to the
		// client's window and opened for it.
		grow := arenaBytes
		if size+vm.PageSize > uint64(grow) {
			grow = int((size + 2*vm.PageSize - 1) &^ (vm.PageSize - 1))
		}
		if q := a.ClientQuota; q != 0 && cs.arena+uint64(grow) > q {
			e.RaiseQuota(caller, "arena", cs.arena+uint64(grow), q)
		}
		arena := e.HeapAlloc(uint64(grow))
		e.WindowAdd(cs.window, arena, uint64(grow))
		if !cs.opened {
			e.WindowOpen(cs.window, caller)
			cs.opened = true
		}
		cs.arena += uint64(grow)
		cs.insertFree(block{addr: arena, size: uint64(grow)})
	}
	panic(&cubicle.APIError{Cubicle: caller, Op: "alloc_malloc",
		Reason: fmt.Sprintf("arena growth failed to satisfy %d bytes", size)})
}

// TotalArenaBytes returns the arena footprint across all clients.
func (a *Module) TotalArenaBytes() uint64 {
	var n uint64
	for _, cs := range a.clients {
		n += cs.arena
	}
	return n
}

// freeAlloc releases an allocation of the calling cubicle.
func (a *Module) freeAlloc(e *cubicle.Env, addr vm.Addr) {
	e.Work(mallocWork)
	caller := e.Caller()
	cs := a.client(e, caller)
	size, ok := cs.sizes[addr]
	if !ok {
		panic(&cubicle.APIError{Cubicle: caller, Op: "alloc_free",
			Reason: fmt.Sprintf("free of unallocated address %#x", uint64(addr))})
	}
	if sh, shared := cs.shares[addr]; shared {
		e.WindowCloseAll(sh.wid)
		e.WindowDestroy(sh.wid)
		delete(cs.shares, addr)
	}
	delete(cs.sizes, addr)
	cs.insertFree(block{addr: addr, size: size})
}

// share opens the allocation at addr for an additional cubicle cid via a
// dedicated window. Page granularity applies: the client should allocate
// shared buffers page-aligned (≥ one page) to avoid unintended sharing.
func (a *Module) share(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	caller := e.Caller()
	cs := a.client(e, caller)
	size, ok := cs.sizes[addr]
	if !ok {
		panic(&cubicle.APIError{Cubicle: caller, Op: "alloc_share",
			Reason: fmt.Sprintf("share of unallocated address %#x", uint64(addr))})
	}
	sh, ok := cs.shares[addr]
	if !ok {
		sh = &shareState{wid: e.WindowInit(), size: size, openTo: make(map[cubicle.ID]bool)}
		e.WindowAdd(sh.wid, addr, size)
		cs.shares[addr] = sh
	}
	if !sh.openTo[cid] {
		e.WindowOpen(sh.wid, cid)
		sh.openTo[cid] = true
	}
}

// unshare revokes a prior share of addr for cid.
func (a *Module) unshare(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	caller := e.Caller()
	cs := a.client(e, caller)
	sh, ok := cs.shares[addr]
	if !ok {
		return
	}
	e.WindowClose(sh.wid, cid)
	delete(sh.openTo, cid)
}

// Component returns the ALLOC component for the builder.
func (a *Module) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "alloc_malloc", RegArgs: 1, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				cubicle.GuardArgs(e, "alloc_malloc", args, 1)
				return e.Ret(uint64(a.malloc(e, args[0])))
			}},
			{Name: "alloc_free", RegArgs: 1, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				cubicle.GuardArgs(e, "alloc_free", args, 1)
				a.freeAlloc(e, vm.Addr(args[0]))
				return nil
			}},
			{Name: "alloc_palloc", RegArgs: 1, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				cubicle.GuardArgs(e, "alloc_palloc", args, 1)
				return e.Ret(uint64(a.malloc(e, args[0]*vm.PageSize)))
			}},
			{Name: "alloc_share", RegArgs: 2, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				cubicle.GuardArgs(e, "alloc_share", args, 2)
				a.share(e, vm.Addr(args[0]), cubicle.ID(args[1]))
				return nil
			}},
			{Name: "alloc_unshare", RegArgs: 2, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				cubicle.GuardArgs(e, "alloc_unshare", args, 2)
				a.unshare(e, vm.Addr(args[0]), cubicle.ID(args[1]))
				return nil
			}},
		},
	}
}

// Client is typed access to ALLOC from another cubicle.
type Client struct {
	malloc, free, palloc, share, unshare cubicle.Handle
}

// NewClient resolves ALLOC's entry points for a caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		malloc:  m.MustResolve(caller, Name, "alloc_malloc"),
		free:    m.MustResolve(caller, Name, "alloc_free"),
		palloc:  m.MustResolve(caller, Name, "alloc_palloc"),
		share:   m.MustResolve(caller, Name, "alloc_share"),
		unshare: m.MustResolve(caller, Name, "alloc_unshare"),
	}
}

// Malloc allocates size bytes owned by ALLOC, windowed to the caller.
func (c *Client) Malloc(e *cubicle.Env, size uint64) vm.Addr {
	return vm.Addr(c.malloc.Call(e, size)[0])
}

// Free releases an allocation.
func (c *Client) Free(e *cubicle.Env, addr vm.Addr) { c.free.Call(e, uint64(addr)) }

// Palloc allocates npages pages, page-aligned.
func (c *Client) Palloc(e *cubicle.Env, npages uint64) vm.Addr {
	return vm.Addr(c.palloc.Call(e, npages)[0])
}

// Share opens the caller's allocation at addr for cubicle cid.
func (c *Client) Share(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	c.share.Call(e, uint64(addr), uint64(cid))
}

// Unshare revokes a Share.
func (c *Client) Unshare(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	c.unshare.Call(e, uint64(addr), uint64(cid))
}

// Allocator abstracts where a component gets its memory: its own cubicle
// sub-allocator (the SQLite deployment) or the ALLOC component (the NGINX
// deployment). Share/Unshare are no-ops for local memory because the
// component owns it and manages windows itself.
type Allocator interface {
	Malloc(e *cubicle.Env, size uint64) vm.Addr
	Free(e *cubicle.Env, addr vm.Addr)
	// Owned reports whether the component itself owns the memory (and
	// can therefore window it directly).
	Owned() bool
	// Share makes [addr,addr+size) accessible to cid, however the
	// underlying ownership requires.
	Share(e *cubicle.Env, addr vm.Addr, size uint64, cid cubicle.ID)
	// Unshare revokes a Share.
	Unshare(e *cubicle.Env, addr vm.Addr, cid cubicle.ID)
}

// Local allocates from the calling cubicle's own sub-allocator and
// windows memory directly. Windows created by Share are tracked so
// Unshare can close them.
type Local struct {
	wids map[vm.Addr]cubicle.WID
}

// NewLocal returns a Local allocator.
func NewLocal() *Local { return &Local{wids: make(map[vm.Addr]cubicle.WID)} }

// Malloc allocates from the cubicle's own heap.
func (l *Local) Malloc(e *cubicle.Env, size uint64) vm.Addr { return e.HeapAlloc(size) }

// Free releases a local allocation.
func (l *Local) Free(e *cubicle.Env, addr vm.Addr) {
	if wid, ok := l.wids[addr]; ok {
		e.WindowCloseAll(wid)
		e.WindowDestroy(wid)
		delete(l.wids, addr)
	}
	e.HeapFree(addr)
}

// Owned reports true: the cubicle owns its local heap.
func (l *Local) Owned() bool { return true }

// Share opens a window onto the local allocation for cid.
func (l *Local) Share(e *cubicle.Env, addr vm.Addr, size uint64, cid cubicle.ID) {
	wid, ok := l.wids[addr]
	if !ok {
		wid = e.WindowInit()
		e.WindowAdd(wid, addr, size)
		l.wids[addr] = wid
	}
	e.WindowOpen(wid, cid)
}

// Unshare closes the window for cid.
func (l *Local) Unshare(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	if wid, ok := l.wids[addr]; ok {
		e.WindowClose(wid, cid)
	}
}

// Remote allocates through the ALLOC component.
type Remote struct{ C *Client }

// Malloc allocates via ALLOC.
func (r *Remote) Malloc(e *cubicle.Env, size uint64) vm.Addr { return r.C.Malloc(e, size) }

// Free releases via ALLOC.
func (r *Remote) Free(e *cubicle.Env, addr vm.Addr) { r.C.Free(e, addr) }

// Owned reports false: ALLOC owns the memory.
func (r *Remote) Owned() bool { return false }

// Share asks ALLOC to open the allocation for cid.
func (r *Remote) Share(e *cubicle.Env, addr vm.Addr, size uint64, cid cubicle.ID) {
	r.C.Share(e, addr, cid)
}

// Unshare asks ALLOC to revoke the share.
func (r *Remote) Unshare(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	r.C.Unshare(e, addr, cid)
}
