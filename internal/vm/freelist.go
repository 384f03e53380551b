package vm

// arenaPages is the smallest arena a heap allocator grows by.
const arenaPages = 64

// Extent is a run of addresses: a free block, a live allocation or a
// window's range.
type Extent struct {
	Addr Addr
	Size uint64
}

// Contains reports whether the extent covers addr's page. Windows work at
// page granularity (§5.3): an extent covers every page it touches, so the
// check is against the page span, not the byte span — the paper notes that
// a component developer must align structures to prevent unintended
// sharing.
func (e Extent) Contains(addr Addr) bool {
	first, last := PagesIn(e.Addr, e.Size)
	pn := addr.PageNum()
	return pn >= first && pn <= last
}

// FreeList is the allocation core of both heap allocators, a cubicle's
// private sub-allocator (§4) and ALLOC's per-client arenas: a first-fit,
// address-sorted, coalescing free list over the arenas inserted into it,
// and the table of live blocks. A block is rounded up to 16 bytes and
// 16-byte aligned; a block of a page or more is page-aligned, so that its
// owner can window it without unintended sharing (§5.3). The zero value is
// an empty list.
type FreeList struct {
	Free  []Extent        // free extents, ascending, never adjacent
	Sizes map[Addr]uint64 // live block sizes by address
	Arena uint64          // bytes of the arenas inserted
	Live  uint64          // bytes in live blocks
}

// GrowPages returns the pages of an arena that fits an n-byte block: 64,
// or one page more than the block spans, so that it fits page-aligned.
func GrowPages(n uint64) int {
	if p := PagesFor(n) + 1; p > arenaPages {
		return p
	}
	return arenaPages
}

// Insert adds the fresh arena [addr, addr+size) to the free list.
func (f *FreeList) Insert(addr Addr, size uint64) {
	f.Arena += size
	f.insert(Extent{Addr: addr, Size: size})
}

// insert adds a free extent in address order, coalescing it with its
// successor, then its predecessor.
func (f *FreeList) insert(b Extent) {
	i := 0
	for i < len(f.Free) && f.Free[i].Addr < b.Addr {
		i++
	}
	f.Free = append(f.Free, Extent{})
	copy(f.Free[i+1:], f.Free[i:])
	f.Free[i] = b
	if i+1 < len(f.Free) && f.Free[i].Addr.Add(f.Free[i].Size) == f.Free[i+1].Addr {
		f.Free[i].Size += f.Free[i+1].Size
		f.Free = append(f.Free[:i+1], f.Free[i+2:]...)
	}
	if i > 0 && f.Free[i-1].Addr.Add(f.Free[i-1].Size) == f.Free[i].Addr {
		f.Free[i-1].Size += f.Free[i].Size
		f.Free = append(f.Free[:i], f.Free[i+1:]...)
	}
}

// Take carves an n-byte block out of the first free extent that fits it.
// It reports false when none does; an arena of GrowPages(n) pages then
// fits the block.
func (f *FreeList) Take(n uint64) (Addr, bool) {
	if n == 0 {
		n = 1
	}
	align := uint64(16)
	if n >= PageSize {
		align = PageSize
	}
	n = (n + 15) &^ 15
	for i, b := range f.Free {
		start := (uint64(b.Addr) + align - 1) &^ (align - 1)
		pad := start - uint64(b.Addr)
		if b.Size < pad+n {
			continue
		}
		// [b.Addr, start) and what follows the block stay free.
		f.Free = append(f.Free[:i], f.Free[i+1:]...)
		if pad > 0 {
			f.insert(Extent{Addr: b.Addr, Size: pad})
		}
		if rem := b.Size - pad - n; rem > 0 {
			f.insert(Extent{Addr: Addr(start + n), Size: rem})
		}
		if f.Sizes == nil {
			f.Sizes = make(map[Addr]uint64)
		}
		f.Sizes[Addr(start)] = n
		f.Live += n
		return Addr(start), true
	}
	return 0, false
}

// Release returns the live block at addr to the free list. It reports
// false, and changes nothing, for an address Take did not return.
func (f *FreeList) Release(addr Addr) bool {
	n, ok := f.Sizes[addr]
	if !ok {
		return false
	}
	delete(f.Sizes, addr)
	f.Live -= n
	f.insert(Extent{Addr: addr, Size: n})
	return true
}
