package vm

import (
	"bytes"
	"testing"
)

// TestSpanChunking checks that Span tiles a multi-page range with
// page-bounded chunks in ascending order and that the chunks alias the
// backing pages (writes through a chunk are visible to ReadAt).
func TestSpanChunking(t *testing.T) {
	as := NewAddrSpace()
	base := mustMap(as, 3, 1, PageHeap, PermRead|PermWrite, 0)
	start := base.Add(100) // straddle the first boundary
	n := uint64(2*PageSize) + 50

	var offs []uint64
	var total uint64
	err := as.Span(start, n, func(off uint64, chunk []byte) {
		offs = append(offs, off)
		if len(chunk) == 0 || len(chunk) > PageSize {
			t.Fatalf("chunk len %d out of range", len(chunk))
		}
		for i := range chunk {
			chunk[i] = byte(off + uint64(i))
		}
		total += uint64(len(chunk))
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("chunks covered %d bytes, want %d", total, n)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("chunk offsets not ascending: %v", offs)
		}
	}
	// First chunk must stop at the page boundary.
	if offs[1] != uint64(PageSize)-start.PageOff() {
		t.Fatalf("second chunk at off %d, want %d", offs[1], uint64(PageSize)-start.PageOff())
	}
	// Writes made through the chunks are the memory's contents.
	got := make([]byte, n)
	if err := as.ReadAt(start, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("span writes not visible through ReadAt")
	}
}

// TestSpanErrors checks the fault cases: the null page, an unmapped page
// mid-range, and a length that wraps the 64-bit address space.
func TestSpanErrors(t *testing.T) {
	as := NewAddrSpace()
	base := mustMap(as, 1, 1, PageHeap, PermRead|PermWrite, 0)
	if err := as.Span(0, 8, func(uint64, []byte) {}); err == nil {
		t.Error("span at null succeeded")
	}
	// One mapped page followed by unmapped space.
	ran := false
	if err := as.Span(base, 2*PageSize, func(off uint64, _ []byte) { ran = true }); err == nil {
		t.Error("span over unmapped page succeeded")
	} else if !ran {
		t.Error("span did not visit the mapped prefix before faulting")
	}
	if err := as.Span(base, ^uint64(0), func(uint64, []byte) {}); err == nil {
		t.Error("wrapping span succeeded")
	}
}

// TestCheckMappedWrap checks the uint64 width fix at the vm layer: a
// range whose end wraps must be rejected outright.
func TestCheckMappedWrap(t *testing.T) {
	as := NewAddrSpace()
	base := mustMap(as, 1, 1, PageHeap, PermRead|PermWrite, 0)
	if err := as.CheckMapped(base, ^uint64(0)); err == nil {
		t.Error("CheckMapped accepted a wrapping range")
	}
	if err := as.CheckMapped(base, 8); err != nil {
		t.Errorf("CheckMapped rejected a valid range: %v", err)
	}
}
