package vm

import (
	"bytes"
	"testing"
)

// readPage returns a copy of the page at a, read through ReadAt.
func readPage(t *testing.T, as *AddrSpace, a Addr) []byte {
	t.Helper()
	b := make([]byte, PageSize)
	if err := as.ReadAt(a, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// dirty writes 0xAB over the whole page at a.
func dirty(t *testing.T, as *AddrSpace, a Addr) {
	t.Helper()
	if err := as.WriteAt(a, bytes.Repeat([]byte{0xAB}, PageSize)); err != nil {
		t.Fatal(err)
	}
}

// TestDemandZeroFrames walks a page through its frame lifecycle: mapped
// without a frame, given one by its first write, and mapped again — from
// the free list or by MapAt — after another owner wrote it, reading zeros
// and holding no frame until its next write, which reuses the retired one.
func TestDemandZeroFrames(t *testing.T) {
	zero := make([]byte, PageSize)
	for _, tc := range []struct {
		name string
		// page maps the page under test, given the page a previous owner
		// wrote and unmapped (0 when the case wants a fresh page).
		page  func(as *AddrSpace, prev Addr) Addr
		reuse bool // a retired frame is waiting for the page's first write
	}{
		{"fresh Map", func(as *AddrSpace, _ Addr) Addr { return mustMap(as, 1, 2, PageHeap, PermRead|PermWrite, 2) }, false},
		{"Map from the free list", func(as *AddrSpace, prev Addr) Addr {
			if err := as.Unmap(prev, 1); err != nil {
				panic(err)
			}
			return mustMap(as, 1, 2, PageHeap, PermRead|PermWrite, 2)
		}, true},
		{"MapAt a written page", func(as *AddrSpace, prev Addr) Addr {
			if err := as.Unmap(prev, 1); err != nil {
				panic(err)
			}
			if _, err := as.MapAt(prev.PageNum(), 2, PageHeap, PermRead|PermWrite, 2); err != nil {
				panic(err)
			}
			return prev
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := NewAddrSpace()
			prev := mustMap(as, 1, 1, PageHeap, PermRead|PermWrite, 1)
			dirty(t, as, prev)
			a := tc.page(as, prev)
			if tc.reuse && a != prev {
				t.Fatalf("page %#x is not the one owner 1 wrote (%#x)", uint64(a), uint64(prev))
			}
			p := as.Page(a)
			if p.Resident() {
				t.Fatal("a newly mapped page holds a frame")
			}
			if got := readPage(t, as, a); !bytes.Equal(got, zero) {
				t.Fatal("a newly mapped page does not read zeros")
			}
			if err := as.Span(a, PageSize, func(_ uint64, c []byte) {
				if &c[0] != &zeroFrame[0] {
					t.Error("Span of an unwritten page is not a view of the zero frame")
				}
			}); err != nil {
				t.Fatal(err)
			}
			if u := as.Usage(2); u != (Usage{Mapped: 1}) {
				t.Errorf("owner 2's usage %+v before the write, want 1 mapped, 0 resident", u)
			}

			spare := len(as.spare)
			if err := as.WriteAt(a.Add(100), []byte{7}); err != nil {
				t.Fatal(err)
			}
			if !p.Resident() {
				t.Fatal("the first write gave the page no frame")
			}
			if tc.reuse && len(as.spare) != spare-1 {
				t.Errorf("the first write took %d retired frames, want 1", spare-len(as.spare))
			}
			want := make([]byte, PageSize)
			want[100] = 7
			if got := readPage(t, as, a); !bytes.Equal(got, want) {
				t.Error("the page reads bytes it was never given: a recycled frame leaked")
			}
			if u := as.Usage(2); u != (Usage{Mapped: 1, Resident: 1}) {
				t.Errorf("owner 2's usage %+v after the write, want 1 mapped, 1 resident", u)
			}
			if !ZeroFrameIsZero() {
				t.Fatal("the shared zero frame was written")
			}
		})
	}
}

// TestUsageFollowsThePageTable: the per-owner counters Map, MapAt, Unmap
// and Writable keep agree with a walk of the page table.
func TestUsageFollowsThePageTable(t *testing.T) {
	as := NewAddrSpace()
	var live []Addr
	for i := 0; i < 300; i++ {
		owner := i%3 - 1 // NoOwner, 0 and 1
		a := mustMap(as, 1+i%4, owner, PageHeap, PermRead|PermWrite, 0)
		live = append(live, a)
		if i%2 == 0 {
			dirty(t, as, a)
		}
		if i%5 == 4 {
			victim := live[i/2]
			n := 1 + (i/2)%4
			if as.Page(victim) != nil {
				if err := as.Unmap(victim, n); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := map[int]Usage{}
	var total Usage
	as.ForEachPage(func(_ uint64, p *Page) {
		u := want[p.Owner]
		u.Mapped++
		total.Mapped++
		if p.Resident() {
			u.Resident++
			total.Resident++
		}
		want[p.Owner] = u
	})
	for owner := NoOwner; owner <= 1; owner++ {
		if got := as.Usage(owner); got != want[owner] {
			t.Errorf("Usage(%d) = %+v, the page table holds %+v", owner, got, want[owner])
		}
	}
	if got := as.Total(); got != total || total.Mapped != as.MappedPages() {
		t.Errorf("Total() = %+v, the page table holds %+v", got, total)
	}
	if as.Usage(7) != (Usage{}) {
		t.Error("an owner with no pages has a usage")
	}
}

// TestPagePointersSurviveGrowth: a *Page stays the page's entry while the
// table grows past it, so callers may hold one across a Map.
func TestPagePointersSurviveGrowth(t *testing.T) {
	as := NewAddrSpace()
	a := mustMap(as, 1, 1, PageHeap, PermRead|PermWrite, 3)
	p := as.Page(a)
	mustMap(as, 5000, 1, PageHeap, PermRead, 0)
	if as.Page(a) != p {
		t.Fatal("growing the page table moved a page entry")
	}
}

// TestSharedFrameLifecycle walks three pages given one shared frame
// (Share) through their lifecycle: the first write through each writer
// gives the written page a copy of its own and leaves its siblings and the
// shared frame as they were; Unmap retires only the copy, so pages mapped
// again read zeros and no later write can be handed the shared frame; and
// Usage counts a shared page as resident throughout, as it would a copy.
func TestSharedFrameLifecycle(t *testing.T) {
	shared := new([PageSize]byte)
	for i := range shared {
		shared[i] = byte(i*7 + 1)
	}
	orig := *shared
	for _, tc := range []struct {
		name  string
		write func(as *AddrSpace, a Addr) // stores 0xEE at a
	}{
		{"WriteAt", func(as *AddrSpace, a Addr) {
			if err := as.WriteAt(a, []byte{0xEE}); err != nil {
				panic(err)
			}
		}},
		{"Writable", func(as *AddrSpace, a Addr) { as.Writable(as.Page(a))[a.PageOff()] = 0xEE }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := NewAddrSpace()
			a := mustMap(as, 3, 1, PageCode, PermExec, 1)
			for i := uint64(0); i < 3; i++ {
				as.Share(as.Page(a.Add(i*PageSize)), shared)
			}
			if u := as.Usage(1); u != (Usage{Mapped: 3, Resident: 3}) {
				t.Fatalf("usage %+v with three shared pages, want 3 mapped, 3 resident", u)
			}
			mid := a.Add(PageSize)
			tc.write(as, mid.Add(9))
			for i := uint64(0); i < 3; i++ {
				p := as.Page(a.Add(i * PageSize))
				if i == 1 {
					want := orig
					want[9] = 0xEE
					if p.Bytes() == shared || *p.Bytes() != want {
						t.Error("the written page is not a copy of the shared frame holding the write")
					}
				} else if p.Bytes() != shared {
					t.Errorf("sibling page %d no longer reads the shared frame", i)
				}
			}
			if *shared != orig {
				t.Fatal("the write reached the shared frame")
			}
			if u := as.Usage(1); u != (Usage{Mapped: 3, Resident: 3}) {
				t.Errorf("usage %+v after the write, want 3 mapped, 3 resident", u)
			}

			if err := as.Unmap(a, 3); err != nil {
				t.Fatal(err)
			}
			if len(as.spare) != 1 || as.spare[0] == shared {
				t.Fatalf("Unmap retired %d frames, want the one copy", len(as.spare))
			}
			if u := as.Usage(1); u != (Usage{}) {
				t.Errorf("usage %+v after Unmap, want none", u)
			}
			b := mustMap(as, 3, 2, PageHeap, PermRead|PermWrite, 2)
			zero := make([]byte, PageSize)
			for i := uint64(0); i < 3; i++ {
				pa := b.Add(i * PageSize)
				if got := readPage(t, as, pa); !bytes.Equal(got, zero) {
					t.Fatalf("remapped page %d does not read zeros", i)
				}
				dirty(t, as, pa)
				if as.Page(pa).Bytes() == shared {
					t.Fatalf("remapped page %d was handed the shared frame", i)
				}
			}
			if *shared != orig {
				t.Fatal("writes to remapped pages reached the shared frame")
			}
			if u := as.Usage(2); u != (Usage{Mapped: 3, Resident: 3}) {
				t.Errorf("usage %+v of the remapped pages, want 3 mapped, 3 resident", u)
			}
			if !ZeroFrameIsZero() {
				t.Fatal("the shared zero frame was written")
			}
		})
	}
}
