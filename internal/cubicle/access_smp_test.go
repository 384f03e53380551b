package cubicle

import (
	"sync"
	"testing"

	"cubicleos/internal/vm"
)

// FuzzSpanTLBConcurrent is the SMP extension of FuzzSpanTLBDifferential
// (like it, named after its checked-in corpus directory, not after a TLB):
// one worker performs fuzz-chosen retag-inducing operations on core 0
// (cross-cubicle writes that trap pages to BAR, owner stores that trap
// them back, window churn, warm restarts of BAR) while a second worker on
// core 1 reads the same pages through the lock-free page walk the whole
// time. The property under test is that a concurrent retag or restart
// never lets a read land in the wrong frame:
//
//   - every read core 1 completes returns a byte from the live page; the
//     reader sticks to offset 32, which no store ever touches, so any
//     nonzero byte is proof it read a reclaimed or foreign frame — and
//     the reader/writer bytes stay disjoint, which is what real cores
//     require of racing guests anyway;
//   - the final read agrees exactly with the last write, since the join
//     orders it after the writer.
//
// Run under -race this doubles as the data-race gate for the lock-free
// walk against retags and restarts, and with the lock-order checker armed
// every interleaving also proves the documented lock hierarchy (global
// before cubicle, cubicles in ID order) is respected.
func FuzzSpanTLBConcurrent(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{3, 3, 3, 0, 0, 1, 1, 2, 2, 9, 9, 9})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 1, 3, 1, 3})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32})
	// Cross-core retag while the reader is mid-translation: alternate
	// BAR-call retags (op 0) with owner stores that trap the page back
	// (op 1) so ownership ping-pongs every step.
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	// Restart-during-read: warm restarts of BAR (op 4) interleaved with
	// retags and loads, so page reclaim + generation bumps race the
	// reader's lock-free walk.
	f.Add([]byte{4, 0, 4, 1, 4, 3, 4, 0, 4, 2, 4, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		ts := bootPair(t, ModeFull)
		m := ts.m
		m.EnableSMP(2)
		m.EnableLockCheck()
		m.EnableContainment(DefaultRestartPolicy())
		reader := newWorker(m, 1)
		barID := ts.cubs["BAR"].ID

		const pages = 2
		var addrs [pages]vm.Addr
		for i := range addrs {
			addrs[i] = ts.heapIn(t, "FOO", 64)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		var last [pages]byte

		wg.Add(1)
		go func() { // writer, core 0
			defer wg.Done()
			defer close(stop)
			e := workerEnterFOO(ts)
			defer leaveOn(ts, e)
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
				case 4: // warm restart of BAR: reclaims its pages and bumps
					// the restart generation while core 1 keeps reading.
					m.lockGlobal(e.T)
					m.sup.restart(e.T, ts.cubs["BAR"])
					m.unlockGlobal(e.T)
				default: // plain owner read keeps the page hot
					_ = e.LoadByte(addrs[p])
				}
			}
		}()

		wg.Add(1)
		go func() { // reader, core 1 (monitor privileges: always authorised)
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for p := 0; p < pages; p++ {
					// Offset 32 is never stored to: the writer and BAR both
					// write offset 0 only, so the bytes the two cores touch
					// are disjoint and any nonzero read means the walk
					// resolved into a reclaimed or foreign frame.
					if v := reader.LoadByte(addrs[p].Add(32)); v != 0 {
						panic("stale read: got a byte no store ever wrote")
					}
				}
			}
		}()
		wg.Wait()

		// The join orders these reads after every write.
		for p := 0; p < pages; p++ {
			if got := reader.LoadByte(addrs[p]); got != last[p] {
				t.Fatalf("final read of page %d = %#x, want last write %#x", p, got, last[p])
			}
		}
	})
}

// workerEnterFOO switches the boot thread into FOO under the lock and
// returns its env (the boot thread sits on core 0).
func workerEnterFOO(ts *testSystem) *Env {
	enterOn(ts, ts.env, "FOO")
	return ts.env
}
