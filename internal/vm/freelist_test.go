package vm

import (
	"reflect"
	"testing"
)

// TestFreeList drives a list holding one 64-page arena at base through
// each rule of the allocation core both heap allocators share, then
// checks the free extents and live bytes it leaves.
func TestFreeList(t *testing.T) {
	const base = Addr(0x100000)
	const arena = 64 * PageSize
	take := func(t *testing.T, f *FreeList, n uint64, want Addr) {
		t.Helper()
		if got, ok := f.Take(n); !ok || got != want {
			t.Fatalf("Take(%d) = %#x, %v; want %#x", n, uint64(got), ok, uint64(want))
		}
	}
	release := func(t *testing.T, f *FreeList, a Addr, want bool) {
		t.Helper()
		if got := f.Release(a); got != want {
			t.Fatalf("Release(%#x) = %v, want %v", uint64(a), got, want)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, f *FreeList)
		free []Extent
		live uint64
	}{
		{"first fit, rounded to 16 bytes", func(t *testing.T, f *FreeList) {
			take(t, f, 24, base)
			take(t, f, 1, base+32)
			take(t, f, 0, base+48)
		}, []Extent{{base + 64, arena - 64}}, 64},
		{"a page or more is page-aligned, its pad stays free", func(t *testing.T, f *FreeList) {
			take(t, f, 16, base)
			take(t, f, PageSize, base+PageSize)
			take(t, f, 100, base+16)
		}, []Extent{{base + 128, PageSize - 128}, {base + 2*PageSize, arena - 2*PageSize}}, 16 + PageSize + 112},
		{"coalesces with both neighbours", func(t *testing.T, f *FreeList) {
			a, _ := f.Take(1024)
			b, _ := f.Take(1024)
			c, _ := f.Take(1024)
			release(t, f, a, true)
			release(t, f, c, true) // joins the tail
			release(t, f, b, true) // joins both
			take(t, f, 2048, base)
		}, []Extent{{base + 2048, arena - 2048}}, 2048},
		{"release of an unknown address changes nothing", func(t *testing.T, f *FreeList) {
			a, _ := f.Take(64)
			release(t, f, a+16, false)
			release(t, f, base+arena, false)
			release(t, f, a, true)
			release(t, f, a, false)
		}, []Extent{{base, arena}}, 0},
		{"a block past every extent fails; a GrowPages arena fits it", func(t *testing.T, f *FreeList) {
			const n = arena + 1
			if a, ok := f.Take(n); ok {
				t.Fatalf("Take(%d) = %#x from a %d-byte list", uint64(n), uint64(a), uint64(arena))
			}
			f.Insert(base+2*arena, uint64(GrowPages(n))*PageSize)
			take(t, f, n, base+2*arena)
		}, []Extent{{base, arena}, {base + 3*arena + 16, 2*PageSize - 16}}, arena + 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &FreeList{}
			f.Insert(base, arena)
			c.run(t, f)
			if !reflect.DeepEqual(f.Free, c.free) {
				t.Errorf("free extents %#v, want %#v", f.Free, c.free)
			}
			if f.Live != c.live {
				t.Errorf("Live = %d, want %d", f.Live, c.live)
			}
			var sum uint64
			for _, n := range f.Sizes {
				sum += n
			}
			if sum != f.Live {
				t.Errorf("live blocks sum to %d, Live reads %d", sum, f.Live)
			}
		})
	}
	for n, want := range map[uint64]int{0: 64, PageSize: 64, 63 * PageSize: 64, 63*PageSize + 1: 65, 64 * PageSize: 65} {
		if got := GrowPages(n); got != want {
			t.Errorf("GrowPages(%d) = %d, want %d", n, got, want)
		}
	}
}
