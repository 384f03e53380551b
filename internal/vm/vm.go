// Package vm implements the simulated machine memory on which CubicleOS
// runs: a software-managed, paged virtual address space in which every page
// carries the metadata the paper's design needs — a 4-bit MPK protection
// key, page-table permissions, an owning cubicle, and a page type (code,
// global data, stack or heap).
//
// The page metadata map of §5.3 ("CubicleOS keeps a page metadata map that
// identifies the window descriptor array corresponding to that page,
// together with its owner and type") is realised directly by the page
// table: lookups are O(1) by construction. Page contents live apart from
// the metadata, in frames a page gets on its first write; until then it
// reads as the shared zero frame (demand-zero), so a mapped page that is
// never written costs the host no memory beyond its table entry. A page
// may also read a process-wide read-only frame it was given (Share): the
// loaded code and guard pages, identical in every boot, are held once.
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

// frame is the backing store of one page's contents.
type frame = [PageSize]byte

// zeroFrame is what every page that has never been written reads as. It
// is the first of the shared frames: read by all pages of all address
// spaces and never written, since writers go through AddrSpace.Writable,
// which gives the page a frame of its own first.
var zeroFrame frame

// Page is one mapped page together with its metadata. Owner and Type are
// fixed at map time; the MPK key and page-table permissions can change,
// and live in one packed word (perm<<8 | key), so a checked access reads
// both with one load. The page's contents live apart from its metadata,
// as the monitor's page metadata map does (§5.3): a page reads a shared
// frame — the zero frame (demand-zero) or one it was given by Share —
// until its first write gives it a frame of its own.
type Page struct {
	frame  *frame   // what the page reads; &zeroFrame until written or shared
	meta   uint32   // Perm<<8 | Key
	Type   PageType // code / global / stack / heap
	mapped bool
	own    bool // frame is the page's own, not a shared one
	Owner  int  // owning cubicle ID, or NoOwner
}

func packMeta(perm Perm, key uint8) uint32 { return uint32(perm)<<8 | uint32(key) }

// Key returns the MPK protection key currently tagged on the page.
func (p *Page) Key() uint8 { return uint8(p.meta) }

// Meta returns the page's permissions and key with one load.
func (p *Page) Meta() (Perm, uint8) { return Perm(p.meta >> 8), uint8(p.meta) }

// SetKey retags the page.
func (p *Page) SetKey(key uint8) { p.meta = p.meta&^0xFF | uint32(key) }

// Bytes returns the page's contents for reading. A page that has never
// been written returns a shared frame (the zero frame, or the one it was
// given by Share), so the result must never be written: writers use
// AddrSpace.Writable.
func (p *Page) Bytes() *[PageSize]byte { return p.frame }

// Resident reports whether the page holds a frame other than the zero
// frame: whether it has been written, or given a frame by Share, since it
// was mapped.
func (p *Page) Resident() bool { return p.frame != &zeroFrame }

// Usage is what one owner's pages cost the host: how many are mapped, and
// how many of those hold a frame (a shared one counts as theirs).
type Usage struct {
	Mapped, Resident int
}

// chunkShift is log2 of the pages a page-table chunk holds.
const chunkShift = 6

// chunk is one fixed block of page-table entries. Chunks never move once
// allocated, so a *Page stays valid for the life of its address space,
// and mapping a page allocates nothing per page.
type chunk [1 << chunkShift]Page

// AddrSpace is the simulated address space: a two-level page table
// indexed by page number. Page number 0 is reserved so that Addr 0 is
// always invalid.
type AddrSpace struct {
	// dir is the page table's top level: entry c holds pages
	// c<<chunkShift onwards, or nil when none of them was ever mapped.
	dir []*chunk
	// top is the next fresh page number handed out by Map when the free
	// list cannot satisfy a request.
	top   uint64
	free  []uint64 // freed page numbers available for reuse
	spare []*frame // own frames of unmapped pages, reused by first writes
	usage []Usage  // per owner, indexed by owner+1 (NoOwner is 0)
}

// NewAddrSpace returns an empty address space.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{top: 1} // page 0 reserved
}

// slot returns the page-table entry of page number pn, allocating its
// chunk (and growing the directory geometrically) on first use.
func (as *AddrSpace) slot(pn uint64) *Page {
	c := pn >> chunkShift
	if c >= uint64(len(as.dir)) {
		d := make([]*chunk, max(uint64(len(as.dir))*2, c+1))
		copy(d, as.dir)
		as.dir = d
	}
	if as.dir[c] == nil {
		as.dir[c] = new(chunk)
	}
	return &as.dir[c][pn&(1<<chunkShift-1)]
}

// install maps page number pn, reading the zero frame, with the given
// metadata. Unmap has retired whatever frame the slot held.
func (as *AddrSpace) install(pn uint64, owner int, typ PageType, perm Perm, key uint8) *Page {
	p := as.slot(pn)
	*p = Page{frame: &zeroFrame, meta: packMeta(perm, key), Type: typ, mapped: true, Owner: owner}
	as.count(owner).Mapped++
	return p
}

// count returns owner's usage counter.
func (as *AddrSpace) count(owner int) *Usage {
	i := owner + 1
	for i >= len(as.usage) {
		as.usage = append(as.usage, Usage{})
	}
	return &as.usage[i]
}

// Usage returns how many of owner's pages are mapped and how many of them
// hold a frame.
func (as *AddrSpace) Usage(owner int) Usage {
	if i := owner + 1; i >= 0 && i < len(as.usage) {
		return as.usage[i]
	}
	return Usage{}
}

// Total is Usage summed over every owner.
func (as *AddrSpace) Total() Usage {
	var t Usage
	for _, u := range as.usage {
		t.Mapped += u.Mapped
		t.Resident += u.Resident
	}
	return t
}

// Writable returns p's contents for writing. A page's first write gives
// it a frame of its own — one retired by Unmap, or a new one — holding
// what the page read until then. Every write to simulated memory goes
// through here.
func (as *AddrSpace) Writable(p *Page) *[PageSize]byte {
	if !p.own {
		as.attach(p)
	}
	return p.frame
}

// attach gives p a frame of its own, a retired one or a new one, copied
// from the shared frame it reads. It stays out of line so that Writable
// inlines into the copy loops.
//
//go:noinline
func (as *AddrSpace) attach(p *Page) {
	var f *frame
	if n := len(as.spare); n > 0 {
		f = as.spare[n-1]
		as.spare = as.spare[:n-1]
		*f = frame{}
	} else {
		f = new(frame)
	}
	if p.frame == &zeroFrame {
		as.count(p.Owner).Resident++
	} else {
		*f = *p.frame
	}
	p.frame, p.own = f, true
}

// Share makes p read f, a process-wide frame that nothing writes, until
// its next write gives it a copy of its own (Writable). A shared frame is
// never retired for reuse; it counts as p's resident frame.
func (as *AddrSpace) Share(p *Page, f *[PageSize]byte) {
	if p.frame == &zeroFrame {
		as.count(p.Owner).Resident++
	}
	p.frame, p.own = f, false
}

// Map allocates npages contiguous pages with the given metadata and
// returns the address of the first. The key is the MPK tag initially
// assigned to every page. A non-positive page count is an error the
// caller must surface as a typed fault, not a raw panic: Map requests
// originate from (simulated) untrusted allocation paths.
func (as *AddrSpace) Map(npages int, owner int, typ PageType, perm Perm, key uint8) (Addr, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("vm: Map with non-positive page count %d", npages)
	}
	var pn uint64
	ok := npages == 1 && len(as.free) > 0
	if ok {
		pn = as.free[len(as.free)-1]
		as.free = as.free[:len(as.free)-1]
	} else {
		pn, ok = as.takeRun(npages)
	}
	if !ok {
		pn = as.top
		as.top += uint64(npages)
	}
	for i := uint64(0); i < uint64(npages); i++ {
		as.install(pn+i, owner, typ, perm, key)
	}
	return Addr(pn << PageShift), nil
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
	if pn >= as.top {
		as.top = pn + 1
	}
	return as.install(pn, owner, typ, perm, key), nil
}

// Unmap releases npages pages starting at addr, which must be page-aligned
// and mapped. Their own frames are retired for reuse by later writes.
func (as *AddrSpace) Unmap(addr Addr, npages int) error {
	if addr.PageOff() != 0 {
		return fmt.Errorf("vm: Unmap of unaligned address %#x", uint64(addr))
	}
	pn := addr.PageNum()
	for i := uint64(0); i < uint64(npages); i++ {
		if as.Page(PageAddr(pn+i)) == nil {
			return fmt.Errorf("vm: Unmap of unmapped page %#x", (pn+i)<<PageShift)
		}
	}
	for i := uint64(0); i < uint64(npages); i++ {
		p := as.Page(PageAddr(pn + i))
		u := as.count(p.Owner)
		u.Mapped--
		if p.own {
			as.spare = append(as.spare, p.frame)
		}
		if p.Resident() {
			u.Resident--
		}
		*p = Page{}
		as.free = append(as.free, pn+i)
	}
	return nil
}

// ForEachPage calls fn for every mapped page, in page-number order.
func (as *AddrSpace) ForEachPage(fn func(pn uint64, p *Page)) {
	for c, ch := range as.dir {
		if ch == nil {
			continue
		}
		for i := range ch {
			if ch[i].mapped {
				fn(uint64(c)<<chunkShift|uint64(i), &ch[i])
			}
		}
	}
}

// Page returns the page containing addr, or nil if it is unmapped.
func (as *AddrSpace) Page(addr Addr) *Page {
	pn := addr.PageNum()
	if c := pn >> chunkShift; c < uint64(len(as.dir)) && as.dir[c] != nil {
		if p := &as.dir[c][pn&(1<<chunkShift-1)]; p.mapped {
			return p
		}
	}
	return nil
}

// errRange describes an access that touches unmapped memory.
func (as *AddrSpace) errRange(op string, addr Addr, n uint64) error {
	return fmt.Errorf("vm: %s of %d bytes at %#x touches unmapped memory", op, n, uint64(addr))
}

// Span resolves the contiguous range [addr, addr+n) into direct views of
// the backing pages, calling fn once per chunk in address order (one chunk
// per page crossed; a chunk never spans pages). off is the chunk's byte
// offset from addr. The slices alias page memory — they are zero-copy and
// valid only until the page is unmapped or first written (a page that was
// never written is viewed through a shared frame, which its first write
// replaces). They are for reading only: a chunk may alias the zero frame
// or another shared one, so writing one would change every page that
// reads it at once. Writers use WriteAt or Writable. Span itself performs no
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
		fn(off, p.Bytes()[po:po+k])
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
		n := copy(b[done:], p.Bytes()[off:])
		done += n
	}
	return nil
}

// WriteAt copies b into memory starting at addr, giving each page it
// touches a frame (Writable). It is a raw (unchecked) operation for trusted
// code.
func (as *AddrSpace) WriteAt(addr Addr, b []byte) error {
	for done := 0; done < len(b); {
		p := as.Page(addr.Add(uint64(done)))
		if p == nil {
			return as.errRange("write", addr, uint64(len(b)))
		}
		off := addr.Add(uint64(done)).PageOff()
		n := copy(as.Writable(p)[off:], b[done:])
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
