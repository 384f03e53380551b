package netdev_test

import (
	"bytes"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/netdev"
	"cubicleos/internal/vm"
)

func bootNet(t *testing.T) (*boot.System, *netdev.Client) {
	t.Helper()
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Net: true,
		Extra: []*cubicle.Component{{
			Name: "APP", Kind: cubicle.KindIsolated,
			Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
		}}})
	return s, netdev.NewClient(s.M, s.Cubs["APP"].ID)
}

func TestTxRxRoundTrip(t *testing.T) {
	s, c := bootNet(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(2 * vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 2*vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))

		frame := []byte("ethernet frame payload")
		e.Write(buf, frame)
		n, errno := c.Tx(e, buf, uint64(len(frame)))
		if errno != 0 || n != uint64(len(frame)) {
			t.Fatalf("tx: n=%d errno=%d", n, errno)
		}
		got := s.Netdev.Wire().HostRecv()
		if !bytes.Equal(got, frame) {
			t.Fatalf("wire got %q", got)
		}

		// Host side injects a frame; the device delivers it.
		s.Netdev.Wire().HostSend([]byte("reply-frame"))
		n, errno = c.Rx(e, buf, 2*vm.PageSize)
		if errno != 0 || n != 11 {
			t.Fatalf("rx: n=%d errno=%d", n, errno)
		}
		if string(cubicletest.ReadBytes(e, buf, n)) != "reply-frame" {
			t.Fatal("rx payload mismatch")
		}
		// Empty queue: Rx returns zero length.
		if n, _ := c.Rx(e, buf, 2*vm.PageSize); n != 0 {
			t.Fatal("rx on empty queue returned data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTxValidation(t *testing.T) {
	s, c := bootNet(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(2 * vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 2*vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		if _, errno := c.Tx(e, buf, 0); errno == 0 {
			t.Error("zero-length frame accepted")
		}
		if _, errno := c.Tx(e, buf, netdev.MTU+1); errno == 0 {
			t.Error("over-MTU frame accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTxWithoutWindowFaults(t *testing.T) {
	s, c := bootNet(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(vm.PageSize) // not windowed
		e.Write(buf, []byte("x"))
		if fault := cubicle.Catch(func() { c.Tx(e, buf, 1) }); fault == nil {
			t.Fatal("device DMA'd from an unwindowed buffer")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// hostPending drains the frames waiting for the host and counts them.
func hostPending(w *netdev.Wire) (n int) {
	for w.HostRecv() != nil {
		n++
	}
	return n
}

func TestWireCounters(t *testing.T) {
	s, c := bootNet(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		e.Write(buf, []byte("abcd"))
		for i := 0; i < 3; i++ {
			c.Tx(e, buf, 4)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w := s.Netdev.Wire()
	if w.FramesOut != 3 || w.BytesOut != 12 {
		t.Errorf("wire out counters: %d frames, %d bytes", w.FramesOut, w.BytesOut)
	}
	if n := hostPending(w); n != 3 {
		t.Errorf("host pending = %d", n)
	}
}

// TestWireDropperLosesFramesInFlight: an injected drop on the transmit
// path must look like a successful send to the stack (the frame left the
// device) while never reaching the host, and a drop on the receive path
// must vanish before the device sees an arrival.
func TestWireDropperLosesFramesInFlight(t *testing.T) {
	s, c := bootNet(t)
	w := s.Netdev.Wire()
	drops := []bool{false, true, false, true, true, false}
	i := 0
	w.SetDropper(func() bool { d := drops[i%len(drops)]; i++; return d })
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		e.Write(buf, []byte("abcd"))
		for j := 0; j < len(drops); j++ {
			n, errno := c.Tx(e, buf, 4)
			if errno != 0 || n != 4 {
				t.Fatalf("tx %d: n=%d errno=%d — wire loss must be invisible to the sender", j, n, errno)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if pending := hostPending(w); w.FramesOut != 6 || w.InjectedDropsOut != 3 || pending != 3 {
		t.Fatalf("out: frames=%d injected=%d pending=%d, want 6/3/3",
			w.FramesOut, w.InjectedDropsOut, pending)
	}
	i = 0
	for j := 0; j < len(drops); j++ {
		w.HostSend([]byte("host frame"))
	}
	if w.InjectedDropsIn != 3 || w.FramesIn != 3 {
		t.Fatalf("in: injected=%d arrived=%d, want 3/3", w.InjectedDropsIn, w.FramesIn)
	}
}
