package lwip_test

import (
	"bytes"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/vm"
)

func bootNet(t *testing.T, mode cubicle.Mode, sendBuf uint64) *boot.System {
	t.Helper()
	s := boot.MustNewFS(boot.Config{
		Mode: mode, Net: true,
		Extra: []*cubicle.Component{{
			Name: "APP", Kind: cubicle.KindIsolated,
			Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
		}},
	})
	if sendBuf != 0 {
		s.Lwip.SendBufCap = sendBuf // sockets size their rings when opened
	}
	return s
}

// appNet is the app-side networking state: an I/O buffer windowed to LWIP.
type appNet struct {
	c   *lwip.Client
	buf vm.Addr
	n   uint64
}

func newAppNet(s *boot.System, e *cubicle.Env, size uint64) *appNet {
	an := &appNet{c: lwip.NewClient(s.M, s.Cubs["APP"].ID), n: size}
	an.buf = e.HeapAlloc(size)
	wid := e.WindowInit()
	e.WindowAdd(wid, an.buf, size)
	e.WindowOpen(wid, e.CubicleOf(lwip.Name))
	return an
}

func TestHeaderRoundTrip(t *testing.T) {
	h := lwip.Header{SrcPort: 80, DstPort: 40001, Seq: 12345, Ack: 999,
		Flags: lwip.FlagSYN | lwip.FlagACK, Wnd: 65535, Len: 1448}
	var b [lwip.HdrSize]byte
	lwip.EncodeHeader(b[:], h)
	if got := lwip.DecodeHeader(b[:]); got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
}

// TestAcceptEcho runs a full TCP exchange: connect, send a request, the
// app echoes it back doubled, FIN teardown.
func TestAcceptEcho(t *testing.T) {
	for _, mode := range []cubicle.Mode{cubicle.ModeUnikraft, cubicle.ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			s := bootNet(t, mode, 0)
			peer := lwip.NewPeer(s.Netdev.Wire())
			err := s.RunAs("APP", func(e *cubicle.Env) {
				an := newAppNet(s, e, 64*1024)
				fd := an.c.Socket(e)
				if errno := an.c.Bind(e, fd, 80); errno != lwip.EOK {
					t.Fatalf("bind: %d", errno)
				}
				if errno := an.c.Listen(e, fd, 8); errno != lwip.EOK {
					t.Fatalf("listen: %d", errno)
				}
				conn := peer.Connect(80)
				an.c.Poll(e) // process SYN, emit SYN-ACK
				peer.Pump()  // peer completes handshake
				if !conn.Established {
					t.Fatal("handshake failed")
				}
				cfd, errno := an.c.Accept(e, fd)
				if errno != lwip.EOK {
					t.Fatalf("accept: %d", errno)
				}
				conn.Send([]byte("ping-around-the-ring"))
				an.c.Poll(e)
				n, errno := an.c.Recv(e, cfd, an.buf, an.n)
				if errno != lwip.EOK || n != 20 {
					t.Fatalf("recv: n=%d errno=%d", n, errno)
				}
				if string(cubicletest.ReadBytes(e, an.buf, n)) != "ping-around-the-ring" {
					t.Fatal("payload mismatch")
				}
				// Echo back twice the data.
				e.Write(an.buf.Add(n), cubicletest.ReadBytes(e, an.buf, n))
				sent, errno := an.c.Send(e, cfd, an.buf, 2*n)
				if errno != lwip.EOK || sent != 2*n {
					t.Fatalf("send: sent=%d errno=%d", sent, errno)
				}
				an.c.Close(e, cfd)
				for i := 0; i < 10 && !conn.FinRcvd; i++ {
					an.c.Poll(e)
					peer.Pump()
				}
				if got := conn.Received(); !bytes.Equal(got, []byte("ping-around-the-ringping-around-the-ring")) {
					t.Fatalf("peer received %q", got)
				}
				if !conn.FinRcvd {
					t.Fatal("peer never saw FIN")
				}
				// Peer-side close reaches the server as EOF.
				conn.Close()
				an.c.Poll(e)
				if n, errno := an.c.Recv(e, cfd, an.buf, an.n); errno != lwip.EOK || n != 0 {
					t.Fatalf("EOF expected, got n=%d errno=%d", n, errno)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLargeTransferSegmentsAndFlowControl pushes 256 KiB through a 64 KiB
// send buffer and checks segmentation, flow control and total delivery.
func TestLargeTransferSegmentsAndFlowControl(t *testing.T) {
	s := bootNet(t, cubicle.ModeFull, 64<<10)
	peer := lwip.NewPeer(s.Netdev.Wire())
	const total = 256 << 10
	err := s.RunAs("APP", func(e *cubicle.Env) {
		an := newAppNet(s, e, 128<<10)
		fd := an.c.Socket(e)
		an.c.Bind(e, fd, 80)
		an.c.Listen(e, fd, 8)
		conn := peer.Connect(80)
		an.c.Poll(e)
		peer.Pump()
		cfd, errno := an.c.Accept(e, fd)
		if errno != lwip.EOK {
			t.Fatalf("accept: %d", errno)
		}
		want := make([]byte, total)
		for i := range want {
			want[i] = byte(i * 13)
		}
		sent := uint64(0)
		sawBackpressure := false
		rounds := 0
		for sent < total {
			rounds++
			if rounds > 10000 {
				t.Fatal("transfer stuck")
			}
			chunk := uint64(32 << 10)
			if sent+chunk > total {
				chunk = total - sent
			}
			e.Write(an.buf, want[sent:sent+chunk])
			n, errno := an.c.Send(e, cfd, an.buf, chunk)
			sent += n
			if errno == lwip.EAGAIN || n < chunk {
				// Send buffer full: the app must drive the stack before
				// it can queue more — the Figure 7 slope-change regime.
				sawBackpressure = true
				an.c.Poll(e)
				peer.Pump()
			}
		}
		for i := 0; i < 100 && conn.ReceivedLen() < total; i++ {
			an.c.Poll(e)
			peer.Pump()
		}
		if !bytes.Equal(conn.Received(), want) {
			t.Fatalf("peer received %d bytes, mismatch or short (want %d)", conn.ReceivedLen(), total)
		}
		if !sawBackpressure {
			t.Error("send buffer never filled (flow control untested)")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Lwip.SegmentsTx < total/lwip.MSS {
		t.Errorf("segments tx = %d, want >= %d", s.Lwip.SegmentsTx, total/lwip.MSS)
	}
	if s.Netdev.Wire().FramesOut == 0 || s.Netdev.Wire().FramesIn == 0 {
		t.Error("wire counters empty")
	}
}

// TestPeerRespectsServerWindow: the peer must not overrun the server's
// 64 KiB receive buffer when the app does not drain it.
func TestPeerRespectsServerWindow(t *testing.T) {
	s := bootNet(t, cubicle.ModeUnikraft, 0)
	peer := lwip.NewPeer(s.Netdev.Wire())
	err := s.RunAs("APP", func(e *cubicle.Env) {
		an := newAppNet(s, e, 256<<10)
		fd := an.c.Socket(e)
		an.c.Bind(e, fd, 80)
		an.c.Listen(e, fd, 8)
		conn := peer.Connect(80)
		an.c.Poll(e)
		peer.Pump()
		cfd, _ := an.c.Accept(e, fd)
		big := make([]byte, 200<<10)
		conn.Send(big)
		for i := 0; i < 50; i++ {
			an.c.Poll(e)
			peer.Pump()
		}
		// Server's rx ring is 64 KiB: everything received must be
		// in-order and bounded; the rest arrives as the app drains.
		got := uint64(0)
		for i := 0; i < 500 && got < uint64(len(big)); i++ {
			n, errno := an.c.Recv(e, cfd, an.buf, an.n)
			if errno == lwip.EAGAIN {
				an.c.Poll(e)
				peer.Pump()
				continue
			}
			got += n
		}
		if got != uint64(len(big)) {
			t.Fatalf("drained %d of %d bytes", got, len(big))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBindConflictAndErrors covers API error paths.
func TestBindConflictAndErrors(t *testing.T) {
	s := bootNet(t, cubicle.ModeUnikraft, 0)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		an := newAppNet(s, e, 4096)
		a := an.c.Socket(e)
		b := an.c.Socket(e)
		an.c.Bind(e, a, 80)
		an.c.Listen(e, a, 4)
		if errno := an.c.Bind(e, b, 80); errno != lwip.EINVAL {
			t.Errorf("duplicate bind: %d", errno)
		}
		if errno := an.c.Listen(e, b, 4); errno != lwip.EINVAL {
			t.Errorf("listen unbound: %d", errno)
		}
		if _, errno := an.c.Accept(e, a); errno != lwip.EAGAIN {
			t.Errorf("accept empty: %d", errno)
		}
		if _, errno := an.c.Accept(e, b); errno != lwip.EINVAL {
			t.Errorf("accept non-listener: %d", errno)
		}
		if _, errno := an.c.Recv(e, 999, an.buf, 1); errno != lwip.EBADF {
			t.Errorf("recv bad fd: %d", errno)
		}
		if _, errno := an.c.Send(e, b, an.buf, 1); errno != lwip.EINVAL {
			t.Errorf("send on unconnected: %d", errno)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNetIsolation: LWIP reading an app buffer without a window faults.
func TestNetIsolation(t *testing.T) {
	s := bootNet(t, cubicle.ModeFull, 0)
	peer := lwip.NewPeer(s.Netdev.Wire())
	err := s.RunAs("APP", func(e *cubicle.Env) {
		c := lwip.NewClient(s.M, s.Cubs["APP"].ID)
		fd := c.Socket(e)
		c.Bind(e, fd, 80)
		c.Listen(e, fd, 4)
		peer.Connect(80)
		c.Poll(e)
		peer.Pump()
		cfd, _ := c.Accept(e, fd)
		buf := e.HeapAlloc(4096) // NOT windowed
		e.Write(buf, []byte("x"))
		if fault := cubicle.Catch(func() { c.Send(e, cfd, buf, 1) }); fault == nil {
			t.Fatal("LWIP read app buffer without a window")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The LWIP->NETDEV edge must exist (SYN-ACK went out).
	edge := cubicle.Edge{From: s.Cubs[lwip.Name].ID, To: s.Cubs[netdev.Name].ID}
	if s.M.Stats.Calls[edge] == 0 {
		t.Error("no LWIP->NETDEV crossings")
	}
}

// TestBacklogLimit: SYNs beyond the listener backlog are dropped, and the
// stack recovers once the queue drains.
func TestBacklogLimit(t *testing.T) {
	s := bootNet(t, cubicle.ModeUnikraft, 0)
	peer := lwip.NewPeer(s.Netdev.Wire())
	err := s.RunAs("APP", func(e *cubicle.Env) {
		an := newAppNet(s, e, 4096)
		fd := an.c.Socket(e)
		an.c.Bind(e, fd, 80)
		an.c.Listen(e, fd, 2) // backlog of 2
		conns := make([]*lwip.PeerConn, 4)
		for i := range conns {
			conns[i] = peer.Connect(80)
		}
		an.c.Poll(e)
		peer.Pump()
		established := 0
		for _, c := range conns {
			if c.Established {
				established++
			}
		}
		if established != 2 {
			t.Fatalf("established %d connections with backlog 2", established)
		}
		// Draining the accept queue makes room for a new connection.
		if _, errno := an.c.Accept(e, fd); errno != lwip.EOK {
			t.Fatal("accept failed")
		}
		late := peer.Connect(80)
		an.c.Poll(e)
		peer.Pump()
		if !late.Established {
			t.Fatal("listener did not recover after accept")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvAfterFinDrainsThenEOF: data queued before the FIN is delivered
// before EOF is signalled.
func TestRecvAfterFinDrainsThenEOF(t *testing.T) {
	s := bootNet(t, cubicle.ModeUnikraft, 0)
	peer := lwip.NewPeer(s.Netdev.Wire())
	err := s.RunAs("APP", func(e *cubicle.Env) {
		an := newAppNet(s, e, 4096)
		fd := an.c.Socket(e)
		an.c.Bind(e, fd, 80)
		an.c.Listen(e, fd, 4)
		conn := peer.Connect(80)
		an.c.Poll(e)
		peer.Pump()
		cfd, _ := an.c.Accept(e, fd)
		conn.Send([]byte("last words"))
		conn.Close()
		an.c.Poll(e)
		n, errno := an.c.Recv(e, cfd, an.buf, 4096)
		if errno != lwip.EOK || n != 10 {
			t.Fatalf("drain before EOF: n=%d errno=%d", n, errno)
		}
		n, errno = an.c.Recv(e, cfd, an.buf, 4096)
		if errno != lwip.EOK || n != 0 {
			t.Fatalf("EOF after drain: n=%d errno=%d", n, errno)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseListener releases the port for rebinding.
func TestCloseListener(t *testing.T) {
	s := bootNet(t, cubicle.ModeUnikraft, 0)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		an := newAppNet(s, e, 4096)
		fd := an.c.Socket(e)
		an.c.Bind(e, fd, 80)
		an.c.Listen(e, fd, 4)
		an.c.Close(e, fd)
		fd2 := an.c.Socket(e)
		if errno := an.c.Bind(e, fd2, 80); errno != lwip.EOK {
			t.Fatalf("rebind after close: %d", errno)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
