package lwip_test

import (
	"bytes"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/vm"
)

// rawTx puts frames on the wire through raw netdev_tx calls from the test
// component, the way a compromised server-side stack could: nothing
// between the component and the peer vouches for the header.
func rawTx(t *testing.T, s *boot.System, frames ...[]byte) {
	t.Helper()
	nd := netdev.NewClient(s.M, s.Cubs["APP"].ID)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		for _, f := range frames {
			e.Write(buf, f)
			if n, errno := nd.Tx(e, buf, uint64(len(f))); errno != 0 || n != uint64(len(f)) {
				t.Fatalf("netdev_tx: n=%d errno=%d", n, errno)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// serverFrame encodes a frame from server port 80 to the peer's first
// connection (port 40000). claim is the payload length the header states.
func serverFrame(seq uint32, flags uint8, claim int, payload []byte) []byte {
	f := make([]byte, lwip.HdrSize+len(payload))
	lwip.EncodeHeader(f, lwip.Header{SrcPort: 80, DstPort: 40000, Seq: seq, Ack: 1,
		Flags: flags, Wnd: 65535, Len: uint16(claim)})
	copy(f[lwip.HdrSize:], payload)
	return f
}

// TestPeerDropsFrameWithOverstatedLen: a frame whose header claims more
// payload than the frame carries used to panic the load generator; with
// recycled MTU-capacity frames it would instead deliver the tail of an
// earlier frame. It must be dropped and counted, and the stream must carry
// on with the next honest segment.
func TestPeerDropsFrameWithOverstatedLen(t *testing.T) {
	s := bootNet(t, cubicle.ModeFull, 0)
	peer := lwip.NewPeer(s.Netdev.Wire())
	conn := peer.Connect(80)

	earlier := bytes.Repeat([]byte("E"), 1200)
	rawTx(t, s,
		serverFrame(7, lwip.FlagSYN|lwip.FlagACK, 0, nil),
		serverFrame(8, lwip.FlagACK, len(earlier), earlier))
	if peer.Pump() != 2 || !conn.Established || !bytes.Equal(conn.Received(), earlier) {
		t.Fatalf("set-up: established %v, %d bytes received", conn.Established, conn.ReceivedLen())
	}

	// Four bytes of payload under a header that says 1000, travelling in
	// the buffer that carried the earlier segment a moment ago.
	rawTx(t, s,
		serverFrame(1208, lwip.FlagACK, 1000, []byte("tiny")),
		serverFrame(1208, lwip.FlagACK, 4, []byte("next")))
	if n := peer.Pump(); n != 2 {
		t.Fatalf("pump handled %d frames, want 2", n)
	}
	if peer.BadFrames != 1 {
		t.Errorf("BadFrames = %d, want 1", peer.BadFrames)
	}
	if got := conn.Received()[len(earlier):]; string(got) != "next" {
		t.Errorf("after the bad frame the stream holds %q, want %q", got, "next")
	}
}

// TestPeerReceiveBuffer: the first data segment sizes the buffer from the
// response header when it can, every other shape of first segment falls
// back to growth, and what was received outlives Release.
func TestPeerReceiveBuffer(t *testing.T) {
	body := bytes.Repeat([]byte("b"), 3000)
	for _, tc := range []struct {
		name     string
		head     string
		presized bool
	}{
		{"content-length", "HTTP/1.0 200 OK\r\nServer: x\r\nContent-Length: 3000\r\n\r\n", true},
		{"lower-case key", "HTTP/1.0 200 OK\r\ncontent-length:3000\r\n\r\n", true},
		{"no length", "HTTP/1.0 200 OK\r\nServer: x\r\n\r\n", false},
		{"not a number", "HTTP/1.0 200 OK\r\nContent-Length: 3e3\r\n\r\n", false},
		{"absurd length", "HTTP/1.0 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n", false},
		{"header split across segments", "HTTP/1.0 200 OK\r\nContent-Length: 3000\r\n" + string(bytes.Repeat([]byte("X-Pad: y\r\n"), 150)) + "\r\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := bootNet(t, cubicle.ModeFull, 0)
			peer := lwip.NewPeer(s.Netdev.Wire())
			conn := peer.Connect(80)
			resp := append([]byte(tc.head), body...)
			frames := [][]byte{serverFrame(7, lwip.FlagSYN|lwip.FlagACK, 0, nil)}
			seq := uint32(8)
			for off := 0; off < len(resp); off += lwip.MSS {
				seg := resp[off:min(off+lwip.MSS, len(resp))]
				frames = append(frames, serverFrame(seq, lwip.FlagACK, len(seg), seg))
				seq += uint32(len(seg))
			}
			rawTx(t, s, frames...)
			peer.Pump()
			conn.Release()
			got := conn.Received()
			if !bytes.Equal(got, resp) {
				t.Fatalf("received %d bytes, want %d", len(got), len(resp))
			}
			if exact := cap(got) == len(resp); exact != tc.presized {
				t.Errorf("buffer capacity %d for a %d-byte response, presized = %v", cap(got), len(resp), tc.presized)
			}
		})
	}
}
