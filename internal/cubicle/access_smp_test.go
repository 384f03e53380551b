package cubicle

import (
	"testing"

	"cubicleos/internal/vm"
)

// FuzzSpanTLBConcurrent is the two-thread extension of FuzzSpanTLBDifferential
// (like it, named after its checked-in corpus directory, not after a TLB):
// the boot thread performs fuzz-chosen retag-inducing operations
// (cross-cubicle writes that trap pages to BAR, owner stores that trap them
// back, window churn, restarts of BAR) and after every one of them a second
// thread reads the same pages. The two threads are stepped by the one
// test goroutine, as the concurrency contract requires. The property under
// test is that a retag or restart between two reads never lets a read land
// in the wrong frame:
//
//   - the reader sticks to offset 32, which no store ever touches, so any
//     nonzero byte is proof it read a reclaimed or foreign frame;
//   - the final read agrees exactly with the last write.
func FuzzSpanTLBConcurrent(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{3, 3, 3, 0, 0, 1, 1, 2, 2, 9, 9, 9})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 1, 3, 1, 3})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32})
	// Ownership ping-pong: alternate BAR-call retags (op 0) with owner
	// stores that trap the page back (op 1).
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	// Restarts of BAR (op 4) interleaved with retags and loads, so page
	// reclaim sits between the reader's reads.
	f.Add([]byte{4, 0, 4, 1, 4, 3, 4, 0, 4, 2, 4, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		ts := bootPair(t, ModeFull)
		m := ts.m
		m.EnableSMP(2)
		m.EnableContainment(DefaultRestartPolicy())
		reader := newWorker(m) // monitor privileges: always authorised
		barID := ts.cubs["BAR"].ID

		const pages = 2
		var addrs [pages]vm.Addr
		for i := range addrs {
			addrs[i] = ts.heapIn(t, "FOO", 64)
		}
		var last [pages]byte

		e := ts.env // writer: the boot thread
		enterOn(ts, e, "FOO")
		barH := m.MustResolve(ts.cubs["FOO"].ID, "BAR", "bar")
		var wids [pages]WID
		for i := range addrs {
			wids[i] = e.WindowInit()
			e.WindowAdd(wids[i], addrs[i], 64)
			e.WindowOpen(wids[i], barID)
		}
		for i, b := range data {
			p := i % pages
			switch b % 5 {
			case 0: // BAR stores 0xAA at offset 0: retag to BAR
				barH.Call(e, uint64(addrs[p]), 0)
				last[p] = 0xAA
			case 1: // owner store traps the page back: retag
				e.StoreByte(addrs[p], b)
				last[p] = b
			case 2: // window churn around a store
				e.WindowClose(wids[p], barID)
				e.WindowOpen(wids[p], barID)
				e.StoreByte(addrs[p], b)
				last[p] = b
			case 4: // restart of BAR: reclaims its pages
				m.sup.restart(ts.cubs["BAR"])
			default: // plain owner read keeps the page hot
				_ = e.LoadByte(addrs[p])
			}
			for p := 0; p < pages; p++ {
				// Offset 32 is never stored to: the writer and BAR both
				// write offset 0 only.
				if v := reader.LoadByte(addrs[p].Add(32)); v != 0 {
					t.Fatalf("stale read after op %d: got %#x, a byte no store ever wrote", i, v)
				}
			}
		}
		leaveOn(ts, e)

		for p := 0; p < pages; p++ {
			if got := reader.LoadByte(addrs[p]); got != last[p] {
				t.Fatalf("final read of page %d = %#x, want last write %#x", p, got, last[p])
			}
		}
	})
}
