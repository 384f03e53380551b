// Package vm implements the simulated machine memory on which CubicleOS
// runs: a software-managed, paged virtual address space in which every page
// carries the metadata the paper's design needs — a 4-bit MPK protection
// key, page-table permissions, an owning cubicle, and a page type (code,
// global data, stack or heap).
//
// The page metadata map of §5.3 ("CubicleOS keeps a page metadata map that
// identifies the window descriptor array corresponding to that page,
// together with its owner and type") is realised directly by the page
// array: lookups are O(1) by construction.
//
// Package vm performs no permission checking itself. Untrusted component
// code never touches an AddrSpace directly; it goes through the checked
// accessors of the cubicle runtime, which consult the per-thread PKRU
// before delegating to the raw operations here.
//
// Concurrency contract: an AddrSpace is driven by one goroutine at a time,
// the one driving its monitor (DESIGN.md §10), so the page table, its
// slots and the retaggable metadata word are plain memory. Atomics here
// would order nothing and buy nothing: the swap measured as no resolvable
// change in host time (httpd_bulk 739 → 745 µs, httpd_small 17.3 →
// 17.0 µs, sqlite_speedtest 162 → 165 ms, all inside their spread;
// EXPERIMENTS.md, "The clock is a plain word"). Plain words are here for
// having one concurrency story, not for speed.
package vm

import (
	"fmt"
	"sort"
)

// PageShift is log2 of the page size.
const PageShift = 12

// PageSize is the size of one page in bytes (4 KiB, as on x86-64).
const PageSize = 1 << PageShift

// Addr is a virtual address in the simulated address space. Address 0 is
// never mapped and acts as the null pointer.
type Addr uint64

// PageNum returns the page number containing the address.
func (a Addr) PageNum() uint64 { return uint64(a) >> PageShift }

// PageOff returns the offset of the address within its page.
func (a Addr) PageOff() uint64 { return uint64(a) & (PageSize - 1) }

// Add returns the address offset by n bytes.
func (a Addr) Add(n uint64) Addr { return a + Addr(n) }

// Perm is a set of page-table permissions.
type Perm uint8

// Page-table permission bits. Execute permission is page-table state only:
// the paper notes MPK does not control execution (§2.2 challenge iii), so
// X lives here, and the simulated hardware modification of §5.5 (no
// read/write on a key implies no execute) is applied by the MPK layer.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Has reports whether all bits in q are set in p.
func (p Perm) Has(q Perm) bool { return p&q == q }

func (p Perm) String() string {
	buf := []byte("---")
	if p.Has(PermRead) {
		buf[0] = 'r'
	}
	if p.Has(PermWrite) {
		buf[1] = 'w'
	}
	if p.Has(PermExec) {
		buf[2] = 'x'
	}
	return string(buf)
}

// PageType classifies a page for the page metadata map. Pages are strictly
// assigned an owner and type at allocation time (§5.3).
type PageType uint8

// Page types distinguished by the monitor's page metadata map.
const (
	PageCode PageType = iota
	PageGlobal
	PageStack
	PageHeap
)

func (t PageType) String() string {
	switch t {
	case PageCode:
		return "code"
	case PageGlobal:
		return "global"
	case PageStack:
		return "stack"
	case PageHeap:
		return "heap"
	}
	return fmt.Sprintf("PageType(%d)", uint8(t))
}

// NoOwner marks a page that belongs to the trusted runtime rather than to
// any cubicle.
const NoOwner = -1

// Page is one mapped page together with its metadata. Owner and Type are
// fixed at map time; the MPK key and page-table permissions can change,
// and live in one packed word (perm<<8 | key), so a checked access reads
// both with one load.
type Page struct {
	Data  [PageSize]byte
	meta  uint32   // Perm<<8 | Key
	Owner int      // owning cubicle ID, or NoOwner
	Type  PageType // code / global / stack / heap
}

func packMeta(perm Perm, key uint8) uint32 { return uint32(perm)<<8 | uint32(key) }

// Key returns the MPK protection key currently tagged on the page.
func (p *Page) Key() uint8 { return uint8(p.meta) }

// Meta returns the page's permissions and key with one load.
func (p *Page) Meta() (Perm, uint8) { return Perm(p.meta >> 8), uint8(p.meta) }

// SetKey retags the page.
func (p *Page) SetKey(key uint8) { p.meta = p.meta&^0xFF | uint32(key) }

// SetPerm replaces the page-table permissions.
func (p *Page) SetPerm(perm Perm) { p.meta = p.meta&0xFF | uint32(perm)<<8 }

// AddrSpace is the simulated address space: a growable array of pages
// indexed by page number. Page number 0 is reserved so that Addr 0 is
// always invalid.
type AddrSpace struct {
	// pt is the page table: slot pn holds page pn, or nil when unmapped.
	pt []*Page
	// top is the next fresh page number handed out by Map when the free
	// list cannot satisfy a request.
	top  uint64
	free []uint64 // freed page numbers available for reuse
	pool []*Page  // retired Page objects, recycled to keep GC churn flat
}

// NewAddrSpace returns an empty address space.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{top: 1, pt: make([]*Page, 1)} // page 0 reserved
}

// ensure grows the page table so that page number pn is addressable.
// Growth is geometric, so repeated single-page appends stay amortised
// O(1).
func (as *AddrSpace) ensure(pn uint64) {
	if pn < uint64(len(as.pt)) {
		return
	}
	t := make([]*Page, max(uint64(len(as.pt))*2, pn+1))
	copy(t, as.pt)
	as.pt = t
}

// setPage installs p at page number pn (table already grown).
func (as *AddrSpace) setPage(pn uint64, p *Page) { as.pt[pn] = p }

// Map allocates npages contiguous pages with the given metadata and
// returns the address of the first. The key is the MPK tag initially
// assigned to every page. A non-positive page count is an error the
// caller must surface as a typed fault, not a raw panic: Map requests
// originate from (simulated) untrusted allocation paths.
func (as *AddrSpace) Map(npages int, owner int, typ PageType, perm Perm, key uint8) (Addr, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("vm: Map with non-positive page count %d", npages)
	}
	if npages == 1 && len(as.free) > 0 {
		pn := as.free[len(as.free)-1]
		as.free = as.free[:len(as.free)-1]
		as.setPage(pn, as.newPage(owner, typ, perm, key))
		return Addr(pn << PageShift), nil
	}
	if pn, ok := as.takeRun(npages); ok {
		for i := 0; i < npages; i++ {
			as.setPage(pn+uint64(i), as.newPage(owner, typ, perm, key))
		}
		return Addr(pn << PageShift), nil
	}
	pn := as.top
	as.top += uint64(npages)
	as.ensure(as.top - 1)
	for i := 0; i < npages; i++ {
		as.setPage(pn+uint64(i), as.newPage(owner, typ, perm, key))
	}
	return Addr(pn << PageShift), nil
}

// newPage returns a zeroed page with the given metadata, recycling a
// retired Page object when one is available. Mapped pages are always
// zero-filled, so reuse is invisible to the guest; recycling keeps the
// allocator's wall-clock cost flat under stack/heap churn (every thread
// maps fresh stacks, every restart reclaims a heap) instead of growing
// the GC heap without bound.
func (as *AddrSpace) newPage(owner int, typ PageType, perm Perm, key uint8) *Page {
	if n := len(as.pool); n > 0 {
		p := as.pool[n-1]
		as.pool = as.pool[:n-1]
		*p = Page{meta: packMeta(perm, key), Owner: owner, Type: typ}
		return p
	}
	return &Page{meta: packMeta(perm, key), Owner: owner, Type: typ}
}

// takeRun removes a contiguous run of npages free page numbers from the
// free list and returns its first page, preferring reuse over growing the
// page table. Multi-page requests are overwhelmingly the fixed-size stack
// and heap arenas that thread exit and cubicle restart free as whole
// runs, so a matching run is the common case.
func (as *AddrSpace) takeRun(npages int) (uint64, bool) {
	if npages < 2 || len(as.free) < npages {
		return 0, false
	}
	sort.Slice(as.free, func(i, j int) bool { return as.free[i] < as.free[j] })
	run := 1
	for i := 1; i < len(as.free); i++ {
		if as.free[i] == as.free[i-1]+1 {
			run++
		} else {
			run = 1
		}
		if run == npages {
			start := i - npages + 1
			pn := as.free[start]
			as.free = append(as.free[:start], as.free[i+1:]...)
			return pn, true
		}
	}
	return 0, false
}

// MapAt maps a single page at the specific page number pn with the given
// metadata, removing pn from the free list (or growing the page table) as
// needed. It is the restore primitive underneath cubicle checkpoints: a
// warm restart re-establishes checkpointed heap pages at their original
// addresses so that every address the cubicle's state holds — free-list
// blocks, file page pointers — stays valid. Mapping over an already-mapped
// page is an error; the caller decides whether that aborts the restore.
func (as *AddrSpace) MapAt(pn uint64, owner int, typ PageType, perm Perm, key uint8) (*Page, error) {
	if pn == 0 {
		return nil, fmt.Errorf("vm: MapAt of reserved page 0")
	}
	if as.Page(PageAddr(pn)) != nil {
		return nil, fmt.Errorf("vm: MapAt of already-mapped page %#x", pn<<PageShift)
	}
	for i, f := range as.free {
		if f == pn {
			as.free = append(as.free[:i], as.free[i+1:]...)
			break
		}
	}
	as.ensure(pn)
	if pn >= as.top {
		as.top = pn + 1
	}
	p := as.newPage(owner, typ, perm, key)
	as.setPage(pn, p)
	return p, nil
}

// Unmap releases npages pages starting at addr, which must be page-aligned
// and mapped.
func (as *AddrSpace) Unmap(addr Addr, npages int) error {
	if addr.PageOff() != 0 {
		return fmt.Errorf("vm: Unmap of unaligned address %#x", uint64(addr))
	}
	pn := addr.PageNum()
	t := as.pt
	for i := uint64(0); i < uint64(npages); i++ {
		if pn+i >= uint64(len(t)) || t[pn+i] == nil {
			return fmt.Errorf("vm: Unmap of unmapped page %#x", (pn+i)<<PageShift)
		}
	}
	for i := uint64(0); i < uint64(npages); i++ {
		as.pool = append(as.pool, t[pn+i])
		t[pn+i] = nil
		as.free = append(as.free, pn+i)
	}
	return nil
}

// ForEachPage calls fn for every mapped page, in page-number order.
func (as *AddrSpace) ForEachPage(fn func(pn uint64, p *Page)) {
	for pn, p := range as.pt {
		if p != nil {
			fn(uint64(pn), p)
		}
	}
}

// Page returns the page containing addr, or nil if it is unmapped.
func (as *AddrSpace) Page(addr Addr) *Page {
	pn := addr.PageNum()
	if pn >= uint64(len(as.pt)) {
		return nil
	}
	return as.pt[pn]
}

// errRange describes an access that touches unmapped memory.
func (as *AddrSpace) errRange(op string, addr Addr, n uint64) error {
	return fmt.Errorf("vm: %s of %d bytes at %#x touches unmapped memory", op, n, uint64(addr))
}

// Span resolves the contiguous range [addr, addr+n) into direct views of
// the backing pages, calling fn once per chunk in address order (one chunk
// per page crossed; a chunk never spans pages). off is the chunk's byte
// offset from addr. The slices alias page memory — they are zero-copy and
// valid only until the page is unmapped. Span itself performs no
// permission checking (package doc): it is the raw backing-resolution
// primitive underneath the checked View accessors of the cubicle runtime.
//
// If the range wraps the 64-bit address space or touches an unmapped page,
// Span returns an error; fn has then been called for every chunk preceding
// the offending page.
func (as *AddrSpace) Span(addr Addr, n uint64, fn func(off uint64, chunk []byte)) error {
	if addr == 0 || uint64(addr)+n < uint64(addr) {
		return as.errRange("span", addr, n)
	}
	for off := uint64(0); off < n; {
		a := addr.Add(off)
		p := as.Page(a)
		if p == nil {
			return as.errRange("span", addr, n)
		}
		po := a.PageOff()
		k := PageSize - po
		if rem := n - off; k > rem {
			k = rem
		}
		fn(off, p.Data[po:po+k])
		off += k
	}
	return nil
}

// ReadAt copies len(b) bytes starting at addr into b. It is a raw
// (unchecked) operation for trusted code.
func (as *AddrSpace) ReadAt(addr Addr, b []byte) error {
	for done := 0; done < len(b); {
		p := as.Page(addr.Add(uint64(done)))
		if p == nil {
			return as.errRange("read", addr, uint64(len(b)))
		}
		off := addr.Add(uint64(done)).PageOff()
		n := copy(b[done:], p.Data[off:])
		done += n
	}
	return nil
}

// WriteAt copies b into memory starting at addr. It is a raw (unchecked)
// operation for trusted code.
func (as *AddrSpace) WriteAt(addr Addr, b []byte) error {
	for done := 0; done < len(b); {
		p := as.Page(addr.Add(uint64(done)))
		if p == nil {
			return as.errRange("write", addr, uint64(len(b)))
		}
		off := addr.Add(uint64(done)).PageOff()
		n := copy(p.Data[off:], b[done:])
		done += n
	}
	return nil
}

// PagesIn returns the page numbers fully or partially covered by the range
// [addr, addr+size).
func PagesIn(addr Addr, size uint64) (first, last uint64) {
	if size == 0 {
		return addr.PageNum(), addr.PageNum()
	}
	return addr.PageNum(), (uint64(addr) + size - 1) >> PageShift
}

// PageAddr returns the address of the first byte of page number pn.
func PageAddr(pn uint64) Addr { return Addr(pn << PageShift) }

// PagesFor returns how many pages are needed to hold n bytes.
func PagesFor(n uint64) int {
	if n == 0 {
		return 1
	}
	return int((n + PageSize - 1) / PageSize)
}
