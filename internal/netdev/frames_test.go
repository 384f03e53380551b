package netdev_test

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/vm"
)

// TestFramePathAllocatesNothing: once the wire's free list has warmed up,
// moving a frame device → host → back and peer → device costs no
// allocation beyond what the cubicle crossing itself makes (its argument
// and result vectors, measured here by an rx on an empty queue).
func TestFramePathAllocatesNothing(t *testing.T) {
	s, c := bootNet(t)
	w := s.Netdev.Wire()
	peer := lwip.NewPeer(w)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(2 * vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 2*vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		e.Write(buf, make([]byte, netdev.MTU))

		crossing := testing.AllocsPerRun(100, func() { c.Rx(e, buf, 2*vm.PageSize) })
		got := testing.AllocsPerRun(100, func() {
			c.Tx(e, buf, netdev.MTU)
			w.Recycle(w.HostRecv())
		})
		if got != crossing {
			t.Errorf("tx → HostRecv → Recycle: %v allocations, a bare crossing makes %v", got, crossing)
		}

		// Close is the one PeerConn call that is exactly one Peer.send: no
		// send window to run out of and no pending queue in between.
		conn := peer.Connect(80)
		c.Rx(e, buf, 2*vm.PageSize)
		got = testing.AllocsPerRun(100, func() {
			conn.Close()
			if n, errno := c.Rx(e, buf, 2*vm.PageSize); n != lwip.HdrSize || errno != 0 {
				t.Fatalf("rx of the peer's frame: n=%d errno=%d", n, errno)
			}
		})
		if got != crossing {
			t.Errorf("Peer.send → rx: %v allocations, a bare crossing makes %v", got, crossing)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFrameOwnership: a frame the host still holds is never handed out
// again, a recycled one is, and a foreign slice too small for an MTU frame
// is not adopted by the list.
func TestFrameOwnership(t *testing.T) {
	w := netdev.New().Wire()
	a := w.Frame(100)
	b := w.Frame(netdev.MTU)
	if len(a) != 100 || cap(a) < netdev.MTU || &a[0] == &b[0] {
		t.Fatalf("Frame: len %d cap %d, distinct %v", len(a), cap(a), &a[0] != &b[0])
	}
	w.Recycle(a)
	if c := w.Frame(7); &c[0] != &a[0] || len(c) != 7 {
		t.Error("a recycled frame was not reused")
	}
	w.Recycle([]byte("short foreign slice"))
	if d := w.Frame(4); cap(d) < netdev.MTU {
		t.Errorf("the free list adopted a %d-byte slice", cap(d))
	}
	if big := w.Frame(netdev.MTU + 1); len(big) != netdev.MTU+1 {
		t.Errorf("oversize frame: len %d", len(big))
	}
}

// TestWireQueueKeepsOrderUnderChurn drives the head-indexed queue through
// its drain-reset and slide-down paths: frames must come out in the order
// they went in however pushes and pops interleave.
func TestWireQueueKeepsOrderUnderChurn(t *testing.T) {
	s, c := bootNet(t)
	w := s.Netdev.Wire()
	next, want := byte(0), byte(0)
	send := func(n int) {
		for i := 0; i < n; i++ {
			f := w.Frame(1)
			f[0] = next
			next++
			w.HostSend(f)
		}
	}
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		recv := func(n int) {
			for i := 0; i < n; i++ {
				if n, _ := c.Rx(e, buf, vm.PageSize); n != 1 || cubicletest.ReadBytes(e, buf, 1)[0] != want {
					t.Fatalf("frame %d out of order", want)
				}
				want++
			}
		}
		for round := 0; round < 40; round++ {
			send(5)
			recv(3) // never drains: the queue has to slide down
		}
		recv(80)
		send(2)
		recv(2) // drains: the queue resets
		if n, _ := c.Rx(e, buf, vm.PageSize); n != 0 {
			t.Fatal("frames left over")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
