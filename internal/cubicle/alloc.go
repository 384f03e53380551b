package cubicle

import (
	"fmt"

	"cubicleos/internal/vm"
)

// arenaPages is how many pages a sub-allocator grabs from the monitor at a
// time when it runs out of space.
const arenaPages = 64

// subAllocator is a cubicle's private heap allocator (§4: "each isolated
// cubicle has its own memory sub-allocator"). It is a first-fit free-list
// allocator over page arenas granted by the monitor; all pages it manages
// are owned by — and tagged with the key of — its cubicle.
type subAllocator struct {
	m     *Monitor
	owner ID
	free  []block            // sorted by address
	sizes map[vm.Addr]uint64 // live allocation sizes
	// Accounting for the inspector and tests.
	arenaBytes uint64
	liveBytes  uint64
}

type block struct {
	addr vm.Addr
	size uint64
}

func newSubAllocator(m *Monitor, owner ID) *subAllocator {
	return &subAllocator{m: m, owner: owner, sizes: make(map[vm.Addr]uint64)}
}

// grow asks the monitor for a fresh arena of at least n bytes.
func (a *subAllocator) grow(t *Thread, n uint64) {
	pages := vm.PagesFor(n)
	if pages < arenaPages {
		pages = arenaPages
	}
	addr := a.m.mapOwnedFor(t, a.owner, pages, vm.PageHeap, vm.PermRead|vm.PermWrite)
	a.arenaBytes += uint64(pages) * vm.PageSize
	a.insertFree(block{addr: addr, size: uint64(pages) * vm.PageSize})
}

// insertFree adds a block to the free list, coalescing with neighbours.
func (a *subAllocator) insertFree(b block) {
	i := 0
	for i < len(a.free) && a.free[i].addr < b.addr {
		i++
	}
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = b
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].addr.Add(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr.Add(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// fit carves a 16-byte-aligned block of n (already rounded) bytes out of
// the free list, or reports failure.
func (a *subAllocator) fit(n, align uint64) (vm.Addr, bool) {
	for i := range a.free {
		b := a.free[i]
		start := (uint64(b.addr) + align - 1) &^ (align - 1)
		pad := start - uint64(b.addr)
		if b.size < pad+n {
			continue
		}
		// Split: [b.addr, start) stays free, [start, start+n) is
		// allocated, remainder stays free.
		a.free = append(a.free[:i], a.free[i+1:]...)
		if pad > 0 {
			a.insertFree(block{addr: b.addr, size: pad})
		}
		if rem := b.size - pad - n; rem > 0 {
			a.insertFree(block{addr: vm.Addr(start + n), size: rem})
		}
		a.sizes[vm.Addr(start)] = n
		a.liveBytes += n
		return vm.Addr(start), true
	}
	return 0, false
}

// alloc returns a 16-byte-aligned block of n bytes. Allocations of a page
// or more are page-aligned so that callers can window them without
// unintended sharing (§5.3 note on structure alignment).
func (a *subAllocator) alloc(t *Thread, n uint64) vm.Addr {
	if n == 0 {
		n = 1
	}
	align := uint64(16)
	if n >= vm.PageSize {
		align = vm.PageSize
	}
	n = (n + 15) &^ 15
	addr, ok := a.fit(n, align)
	if !ok {
		a.grow(t, n+align)
		addr, ok = a.fit(n, align)
	}
	if !ok {
		panic(&APIError{Cubicle: a.owner, Op: "heap_alloc",
			Reason: fmt.Sprintf("allocator failed to satisfy %d bytes after growing", n)})
	}
	return addr
}

// free releases a block previously returned by alloc.
func (a *subAllocator) free_(addr vm.Addr) {
	n, ok := a.sizes[addr]
	if !ok {
		panic(&APIError{Cubicle: a.owner, Op: "free",
			Reason: fmt.Sprintf("free of unallocated address %#x", uint64(addr))})
	}
	delete(a.sizes, addr)
	a.liveBytes -= n
	a.insertFree(block{addr: addr, size: n})
}
