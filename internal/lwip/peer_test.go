package lwip_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
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
	if err := rawTxErr(s, frames...); err != nil {
		t.Fatal(err)
	}
}

// rawTxErr is rawTx for a goroutine that may not fail the test itself.
func rawTxErr(s *boot.System, frames ...[]byte) error {
	nd := netdev.NewClient(s.M, s.Cubs["APP"].ID)
	var txErr error
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		for _, f := range frames {
			e.Write(buf, f)
			if n, errno := nd.Tx(e, buf, uint64(len(f))); errno != 0 || n != uint64(len(f)) {
				txErr = fmt.Errorf("netdev_tx: n=%d errno=%d", n, errno)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return txErr
}

// serverFrame encodes a frame from server port 80 to the peer's first
// connection (port 40000). claim is the payload length the header states.
func serverFrame(seq uint32, flags uint8, claim int, payload []byte) []byte {
	return serverFrameTo(40000, seq, flags, claim, payload)
}

// serverFrameTo is serverFrame to the connection on the given peer port.
func serverFrameTo(port uint16, seq uint32, flags uint8, claim int, payload []byte) []byte {
	f := make([]byte, lwip.HdrSize+len(payload))
	lwip.EncodeHeader(f, lwip.Header{SrcPort: 80, DstPort: port, Seq: seq, Ack: 1,
		Flags: flags, Wnd: 65535, Len: uint16(claim)})
	copy(f[lwip.HdrSize:], payload)
	return f
}

// responseFrames plays the server's side of one exchange with the
// connection on the given peer port: the SYN-ACK, then resp cut into
// MSS-sized in-order segments.
func responseFrames(port uint16, resp []byte) [][]byte {
	frames := [][]byte{serverFrameTo(port, 7, lwip.FlagSYN|lwip.FlagACK, 0, nil)}
	seq := uint32(8)
	for off := 0; off < len(resp); off += lwip.MSS {
		seg := resp[off:min(off+lwip.MSS, len(resp))]
		frames = append(frames, serverFrameTo(port, seq, lwip.FlagACK, len(seg), seg))
		seq += uint32(len(seg))
	}
	return frames
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
			rawTx(t, s, responseFrames(40000, resp)...)
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

// recycleRun opens 60 connections on a fresh system, one after another,
// plays the server's side of a response of varying size to each, and hands
// every connection but each seventh back with Recycle. It returns the
// capacity of the buffer each response arrived in — which buffer the free
// list handed out — and the heap objects the run allocated.
func recycleRun(t *testing.T) (caps []int, mallocs uint64, err error) {
	s := bootNet(t, cubicle.ModeFull, 0)
	peer := lwip.NewPeer(s.Netdev.Wire())
	sizes := []int{300, 3000, 20000, 1200, 3000}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 60; i++ {
		conn := peer.Connect(80)
		size := sizes[i%len(sizes)]
		// (No fmt here: its sync.Pool is what the free list must not be.)
		resp := strconv.AppendInt([]byte("HTTP/1.0 200 OK\r\nContent-Length: "), int64(size), 10)
		resp = append(append(resp, "\r\n\r\n"...), bytes.Repeat([]byte{byte(i)}, size)...)
		if err := rawTxErr(s, responseFrames(uint16(40000+i), resp)...); err != nil {
			return nil, 0, err
		}
		peer.Pump()
		if !bytes.Equal(conn.Received(), resp) {
			return nil, 0, fmt.Errorf("connection %d received %d bytes, want %d", i, conn.ReceivedLen(), len(resp))
		}
		caps = append(caps, cap(conn.Received()))
		if i%7 == 6 {
			conn.Release() // a buffer somebody keeps
		} else {
			conn.Recycle()
		}
	}
	runtime.ReadMemStats(&after)
	return caps, after.Mallocs - before.Mallocs, nil
}

// TestPeerFreeListDeterministic: which buffer a connection gets, and how
// many objects a run allocates, depend on the sequence of calls alone —
// the reason the free list is a slice and not a sync.Pool, whose contents
// depend on when the collector ran. The list is used: most responses
// arrive in a buffer larger than they asked for.
func TestPeerFreeListDeterministic(t *testing.T) {
	// No collection inside a run: one restarts the allocator's tiny blocks,
	// which moves the runtime's own object count by one or two.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// No new OS thread inside a run either: the runtime allocates five
	// objects of its own when it starts one, which a goroutine woken while
	// another P sits idle can make it do on a loaded host. One P leaves
	// none idle.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, _, err := recycleRun(t); err != nil { // package-level lazy set-up
		t.Fatal(err)
	}
	caps1, mallocs1, err := recycleRun(t)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC() // a pool would be emptied here
	caps2, mallocs2, err := recycleRun(t)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(caps1, caps2) {
		t.Errorf("two identical runs were handed different buffers:\n%v\n%v", caps1, caps2)
	}
	if mallocs1 != mallocs2 {
		t.Errorf("two identical runs allocated %d and %d objects", mallocs1, mallocs2)
	}
	// The sizes asked for cycle through four values; a free list that is
	// used hands the small responses the large buffers instead.
	sorted := slices.Clone(caps1)
	slices.Sort(sorted)
	if n := len(slices.Compact(sorted)); n >= 4 {
		t.Errorf("60 connections arrived in buffers of %d capacities, one a size asked for: the free list is not used", n)
	}
}

// TestParallelPeersShareNoBuffers is the shard guard for the free list:
// it belongs to one Peer, so two peers driven from two goroutines, as the
// shards of siege.ParallelOpenLoop are, touch no common word (-race says)
// and each sees exactly what a lone run sees.
func TestParallelPeersShareNoBuffers(t *testing.T) {
	want, _, err := recycleRun(t)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got, errs := make([][]int, 2), make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, errs[i] = recycleRun(t)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !slices.Equal(got[i], want) {
			t.Errorf("shard %d: %v\n got %v\nwant %v", i, errs[i], got[i], want)
		}
	}
}
