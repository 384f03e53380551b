package cubicle

import (
	"fmt"

	"cubicleos/internal/vm"
)

// subAllocator is a cubicle's private heap allocator (§4: "each isolated
// cubicle has its own memory sub-allocator"): a vm.FreeList over page
// arenas granted by the monitor. All pages it manages are owned by — and
// tagged with the key of — its cubicle.
type subAllocator struct {
	m     *Monitor
	owner ID
	vm.FreeList
}

func newSubAllocator(m *Monitor, owner ID) *subAllocator {
	return &subAllocator{m: m, owner: owner}
}

// alloc returns a block of n bytes, growing the heap by a fresh arena
// when no free extent fits it.
func (a *subAllocator) alloc(n uint64) vm.Addr {
	addr, ok := a.Take(n)
	if !ok {
		pages := vm.GrowPages(n)
		a.Insert(a.m.MapOwned(a.owner, pages, vm.PageHeap, vm.PermRead|vm.PermWrite), uint64(pages)*vm.PageSize)
		addr, ok = a.Take(n)
	}
	if !ok {
		panic(&APIError{Cubicle: a.owner, Op: "heap_alloc",
			Reason: fmt.Sprintf("allocator failed to satisfy %d bytes after growing", n)})
	}
	return addr
}

// free releases a block previously returned by alloc.
func (a *subAllocator) free(addr vm.Addr) {
	if !a.Release(addr) {
		panic(&APIError{Cubicle: a.owner, Op: "free",
			Reason: fmt.Sprintf("free of unallocated address %#x", uint64(addr))})
	}
}
