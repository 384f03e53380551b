package vm

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// mustMap is Map for tests whose requests are valid by construction.
func mustMap(as *AddrSpace, npages, owner int, typ PageType, perm Perm, key uint8) Addr {
	a, err := as.Map(npages, owner, typ, perm, key)
	if err != nil {
		panic(err)
	}
	return a
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x3025)
	if a.PageNum() != 3 {
		t.Errorf("PageNum = %d, want 3", a.PageNum())
	}
	if a.PageOff() != 0x25 {
		t.Errorf("PageOff = %#x, want 0x25", a.PageOff())
	}
	if a.Add(0x10) != 0x3035 {
		t.Errorf("Add = %#x", uint64(a.Add(0x10)))
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		0:                               "---",
		PermRead:                        "r--",
		PermRead | PermWrite:            "rw-",
		PermRead | PermWrite | PermExec: "rwx",
		PermExec:                        "--x",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Perm(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestPageTypeString(t *testing.T) {
	for typ, want := range map[PageType]string{
		PageCode: "code", PageGlobal: "global", PageStack: "stack", PageHeap: "heap",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%v: got %q want %q", typ, got, want)
		}
	}
}

func TestMapAssignsMetadata(t *testing.T) {
	as := NewAddrSpace()
	addr := mustMap(as, 3, 7, PageHeap, PermRead|PermWrite, 5)
	if addr == 0 {
		t.Fatal("Map returned null address")
	}
	if addr.PageOff() != 0 {
		t.Fatal("Map returned unaligned address")
	}
	for i := 0; i < 3; i++ {
		p := as.Page(addr.Add(uint64(i) * PageSize))
		if p == nil {
			t.Fatalf("page %d unmapped", i)
		}
		if perm, key := p.Meta(); p.Owner != 7 || p.Type != PageHeap || key != 5 || !perm.Has(PermWrite) {
			t.Errorf("page %d metadata = owner %d type %v key %d perm %v", i, p.Owner, p.Type, key, perm)
		}
	}
}

func TestAddrZeroNeverMapped(t *testing.T) {
	as := NewAddrSpace()
	for i := 0; i < 10; i++ {
		if a := mustMap(as, 1, 0, PageHeap, PermRead, 0); a == 0 {
			t.Fatal("Map returned address 0")
		}
	}
	if as.Page(0) != nil {
		t.Fatal("page 0 is mapped")
	}
}

func TestUnmapAndReuse(t *testing.T) {
	as := NewAddrSpace()
	a := mustMap(as, 1, 1, PageHeap, PermRead, 1)
	b := mustMap(as, 1, 1, PageHeap, PermRead, 1)
	if err := as.Unmap(a, 1); err != nil {
		t.Fatal(err)
	}
	if as.Page(a) != nil {
		t.Fatal("unmapped page still present")
	}
	c := mustMap(as, 1, 2, PageStack, PermWrite, 3)
	if c != a {
		t.Errorf("freed page not reused: got %#x want %#x", uint64(c), uint64(a))
	}
	p := as.Page(c)
	if p.Owner != 2 || p.Type != PageStack || p.Key() != 3 {
		t.Error("reused page kept stale metadata")
	}
	_ = b
}

func TestUnmapErrors(t *testing.T) {
	as := NewAddrSpace()
	a := mustMap(as, 1, 0, PageHeap, PermRead, 0)
	if err := as.Unmap(a.Add(1), 1); err == nil {
		t.Error("Unmap of unaligned address succeeded")
	}
	if err := as.Unmap(a.Add(PageSize), 1); err == nil {
		t.Error("Unmap of unmapped page succeeded")
	}
	// Partial failure must not unmap anything.
	if err := as.Unmap(a, 2); err == nil {
		t.Error("Unmap spanning unmapped page succeeded")
	}
	if as.Page(a) == nil {
		t.Error("failed Unmap removed the mapped page")
	}
}

func TestReadWriteCrossPage(t *testing.T) {
	as := NewAddrSpace()
	addr := mustMap(as, 2, 0, PageHeap, PermRead|PermWrite, 0)
	data := make([]byte, PageSize+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := addr.Add(PageSize - 61) // straddles the boundary
	if err := as.WriteAt(start, data[:128]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := as.ReadAt(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:128]) {
		t.Error("cross-page round trip mismatch")
	}
}

func TestReadWriteUnmapped(t *testing.T) {
	as := NewAddrSpace()
	addr := mustMap(as, 1, 0, PageHeap, PermRead|PermWrite, 0)
	buf := make([]byte, 16)
	if err := as.ReadAt(addr.Add(PageSize-8), buf); err == nil {
		t.Error("read running off the mapping succeeded")
	}
	if err := as.WriteAt(addr.Add(PageSize-8), buf); err == nil {
		t.Error("write running off the mapping succeeded")
	}
}

func TestU64RoundTrip(t *testing.T) {
	as := NewAddrSpace()
	addr := mustMap(as, 2, 0, PageHeap, PermRead|PermWrite, 0)
	f := func(off uint16, v uint64) bool {
		a := addr.Add(uint64(off) % (2*PageSize - 8)) // keep the 8-byte word inside the mapping
		var w, r [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		if err := as.WriteAt(a, w[:]); err != nil {
			return false
		}
		err := as.ReadAt(a, r[:])
		return err == nil && binary.LittleEndian.Uint64(r[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPagesIn(t *testing.T) {
	first, last := PagesIn(Addr(PageSize-1), 2)
	if first != 0 || last != 1 {
		t.Errorf("PagesIn straddle = (%d,%d), want (0,1)", first, last)
	}
	first, last = PagesIn(Addr(PageSize), PageSize)
	if first != 1 || last != 1 {
		t.Errorf("PagesIn exact page = (%d,%d), want (1,1)", first, last)
	}
	first, last = PagesIn(Addr(0x1000), 0)
	if first != 1 || last != 1 {
		t.Errorf("PagesIn empty = (%d,%d), want (1,1)", first, last)
	}
}

func TestPagesFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, PageSize: 1, PageSize + 1: 2, 3 * PageSize: 3}
	for n, want := range cases {
		if got := PagesFor(n); got != want {
			t.Errorf("PagesFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestForEachPage(t *testing.T) {
	as := NewAddrSpace()
	a := mustMap(as, 2, 0, PageHeap, PermRead, 4)
	mustMap(as, 1, 1, PageStack, PermRead, 5)
	if err := as.Unmap(a, 1); err != nil {
		t.Fatal(err)
	}
	var pns []uint64
	as.ForEachPage(func(pn uint64, p *Page) { pns = append(pns, pn) })
	if len(pns) != 2 {
		t.Fatalf("ForEachPage visited %d pages, want 2", len(pns))
	}
	for i := 1; i < len(pns); i++ {
		if pns[i] <= pns[i-1] {
			t.Error("ForEachPage not in page order")
		}
	}
}

func TestMappedPages(t *testing.T) {
	as := NewAddrSpace()
	if as.MappedPages() != 0 {
		t.Fatal("fresh address space has mapped pages")
	}
	a := mustMap(as, 5, 0, PageHeap, PermRead, 0)
	if as.MappedPages() != 5 {
		t.Errorf("MappedPages = %d, want 5", as.MappedPages())
	}
	if err := as.Unmap(a, 2); err != nil {
		t.Fatal(err)
	}
	if as.MappedPages() != 3 {
		t.Errorf("MappedPages after unmap = %d, want 3", as.MappedPages())
	}
}

func TestMapRejectsNonPositivePages(t *testing.T) {
	as := NewAddrSpace()
	for _, n := range []int{0, -1} {
		if _, err := as.Map(n, 0, PageHeap, PermRead, 0); err == nil {
			t.Errorf("Map(%d pages) did not error", n)
		}
	}
	if as.MappedPages() != 0 {
		t.Error("failed Map left pages mapped")
	}
}

func TestMapAtRestoresSpecificPage(t *testing.T) {
	as := NewAddrSpace()
	a, err := as.Map(3, 4, PageHeap, PermRead|PermWrite, 7)
	if err != nil {
		t.Fatal(err)
	}
	pn := a.PageNum() + 1
	if err := as.Unmap(PageAddr(pn), 1); err != nil {
		t.Fatal(err)
	}
	p, err := as.MapAt(pn, 5, PageHeap, PermRead, 9)
	if err != nil {
		t.Fatal(err)
	}
	if perm, key := p.Meta(); p.Owner != 5 || key != 9 || perm != PermRead || p.Type != PageHeap {
		t.Errorf("restored page metadata = owner %d key %d perm %v type %v",
			p.Owner, key, perm, p.Type)
	}
	if as.Page(PageAddr(pn)) != p {
		t.Error("MapAt did not install the page at the requested number")
	}
	// The freed page number must have left the free list: a later Map must
	// not hand it out again.
	if b, err := as.Map(1, 0, PageHeap, PermRead, 0); err != nil || b.PageNum() == pn {
		t.Errorf("free list still contains restored page (Map returned %#x, err %v)", uint64(b), err)
	}
}

func TestMapAtErrors(t *testing.T) {
	as := NewAddrSpace()
	a, err := as.Map(1, 0, PageHeap, PermRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapAt(a.PageNum(), 0, PageHeap, PermRead, 0); err == nil {
		t.Error("MapAt over a mapped page did not error")
	}
	if _, err := as.MapAt(0, 0, PageHeap, PermRead, 0); err == nil {
		t.Error("MapAt of page 0 did not error")
	}
	// Growing past the current table end is fine: restores may re-create
	// pages the teardown's pool recycling has not reused yet.
	if _, err := as.MapAt(100, 1, PageStack, PermRead|PermWrite, 3); err != nil {
		t.Errorf("MapAt past table end: %v", err)
	}
	if as.Page(PageAddr(100)) == nil {
		t.Error("MapAt past table end did not map the page")
	}
}
