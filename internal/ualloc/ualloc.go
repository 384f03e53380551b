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

// mallocWork models the allocator's own bookkeeping cost per operation.
const mallocWork = 60

// clientState is ALLOC's per-client bookkeeping: the client's arenas are
// covered by one window opened for that client only, so distinct clients
// never share pages. Arenas are never returned to the monitor, so the free
// list's Arena is also the client's high-water mark.
type clientState struct {
	window cubicle.WID
	opened bool
	shares map[vm.Addr]shareState
	vm.FreeList
}

// shareState is the window ALLOC made to share one allocation, held by
// value: a share costs the map entry and nothing else.
type shareState struct {
	wid    cubicle.WID
	size   uint64
	openTo uint64 // bitmask of the cubicles it is open for, like Window.Open
}

// Module is the ALLOC component state.
type Module struct {
	clients map[cubicle.ID]*clientState
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
			shares: make(map[vm.Addr]shareState),
		}
		a.clients[id] = cs
	}
	return cs
}

// malloc allocates size bytes for the calling cubicle.
func (a *Module) malloc(e *cubicle.Env, size uint64) vm.Addr {
	e.Work(mallocWork)
	caller := e.Caller()
	cs := a.client(e, caller)
	addr, ok := cs.Take(size)
	if !ok {
		// Grow: a fresh page-aligned arena owned by ALLOC, added to the
		// client's window and opened for it.
		grow := uint64(vm.GrowPages(size)) * vm.PageSize
		arena := e.HeapAlloc(grow)
		e.WindowAdd(cs.window, arena, grow)
		if !cs.opened {
			e.WindowOpen(cs.window, caller)
			cs.opened = true
		}
		cs.Insert(arena, grow)
		addr, ok = cs.Take(size)
	}
	if !ok {
		panic(&cubicle.APIError{Cubicle: caller, Op: "alloc_malloc",
			Reason: fmt.Sprintf("arena growth failed to satisfy %d bytes", size)})
	}
	return addr
}

// TotalArenaBytes returns the arena footprint across all clients.
func (a *Module) TotalArenaBytes() uint64 {
	var n uint64
	for _, cs := range a.clients {
		n += cs.Arena
	}
	return n
}

// freeAlloc releases an allocation of the calling cubicle.
func (a *Module) freeAlloc(e *cubicle.Env, addr vm.Addr) {
	e.Work(mallocWork)
	caller := e.Caller()
	cs := a.client(e, caller)
	if !cs.Release(addr) {
		panic(&cubicle.APIError{Cubicle: caller, Op: "alloc_free",
			Reason: fmt.Sprintf("free of unallocated address %#x", uint64(addr))})
	}
	if sh, shared := cs.shares[addr]; shared {
		e.WindowCloseAll(sh.wid)
		e.WindowDestroy(sh.wid)
		delete(cs.shares, addr)
	}
}

// share opens the allocation at addr for an additional cubicle cid via a
// dedicated window. Page granularity applies: the client should allocate
// shared buffers page-aligned (≥ one page) to avoid unintended sharing.
func (a *Module) share(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	caller := e.Caller()
	cs := a.client(e, caller)
	size, ok := cs.Sizes[addr]
	if !ok {
		panic(&cubicle.APIError{Cubicle: caller, Op: "alloc_share",
			Reason: fmt.Sprintf("share of unallocated address %#x", uint64(addr))})
	}
	sh, ok := cs.shares[addr]
	if !ok {
		sh = shareState{wid: e.WindowInit(), size: size}
		e.WindowAdd(sh.wid, addr, size)
		cs.shares[addr] = sh
	}
	// An ID past the mask shifts out to no bit, and WindowOpen refuses it.
	if bit := uint64(1) << uint(cid); sh.openTo&bit == 0 {
		e.WindowOpen(sh.wid, cid)
		sh.openTo |= bit
		cs.shares[addr] = sh
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
	sh.openTo &^= 1 << uint(cid)
	cs.shares[addr] = sh
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

// Palloc allocates npages pages, page-aligned. No run calls it; it stays
// with the handle NewClient resolves at boot, part of the component ABI
// (ROADMAP item 15).
func (c *Client) Palloc(e *cubicle.Env, npages uint64) vm.Addr {
	return vm.Addr(c.palloc.Call(e, npages)[0])
}

// Share opens the caller's allocation at addr for cubicle cid.
func (c *Client) Share(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	c.share.Call(e, uint64(addr), uint64(cid))
}

// Unshare revokes a Share. Like Palloc, no run calls it; it stays with
// its handle, part of the component ABI.
func (c *Client) Unshare(e *cubicle.Env, addr vm.Addr, cid cubicle.ID) {
	c.unshare.Call(e, uint64(addr), uint64(cid))
}

// Allocator abstracts where RAMFS gets its file pages: its own cubicle
// sub-allocator (Local, the SQLite deployment) or the ALLOC component (a
// *Client, the NGINX deployment).
type Allocator interface {
	Malloc(e *cubicle.Env, size uint64) vm.Addr
	Free(e *cubicle.Env, addr vm.Addr)
}

// Local allocates from the calling cubicle's own sub-allocator: the
// cubicle owns the memory and windows it itself.
type Local struct{}

// Malloc allocates from the cubicle's own heap.
func (Local) Malloc(e *cubicle.Env, size uint64) vm.Addr { return e.HeapAlloc(size) }

// Free releases a local allocation.
func (Local) Free(e *cubicle.Env, addr vm.Addr) { e.HeapFree(addr) }
