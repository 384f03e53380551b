package netdev_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/netdev"
	"cubicleos/internal/siege"
)

// wireDigest is what one scenario put on the wire: a CRC per direction
// over every frame's length and bytes in queue order, one over both
// directions interleaved (so the relative order of a segment and the ACK
// it provoked is pinned too), and the wire's own counters.
type wireDigest struct {
	toHost, toDevice, both                 uint32
	framesOut, framesIn, bytesOut, bytesIn uint64
}

func (d wireDigest) String() string {
	return fmt.Sprintf("{%#08x, %#08x, %#08x, %d, %d, %d, %d}",
		d.toHost, d.toDevice, d.both, d.framesOut, d.framesIn, d.bytesOut, d.bytesIn)
}

// tapWire digests every frame queued on w from now on; the returned
// function reads the digest.
func tapWire(w *netdev.Wire) func() wireDigest {
	var d wireDigest
	w.SetTap(func(toHost bool, frame []byte) {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(frame)))
		sum := &d.toDevice
		if toHost {
			hdr[0], sum = 1, &d.toHost
		}
		*sum = crc32.Update(crc32.Update(*sum, crc32.IEEETable, hdr[1:]), crc32.IEEETable, frame)
		d.both = crc32.Update(crc32.Update(d.both, crc32.IEEETable, hdr[:]), crc32.IEEETable, frame)
	})
	return func() wireDigest {
		d.framesOut, d.framesIn, d.bytesOut, d.bytesIn = w.FramesOut, w.FramesIn, w.BytesOut, w.BytesIn
		return d
	}
}

// pinTarget boots a target serving a 4 KiB /small and, when asked, a
// 1 MiB /bulk, both seeded noise, with the wire tapped.
func pinTarget(t *testing.T, bulk bool) (*siege.Target, func() wireDigest) {
	t.Helper()
	tgt, err := siege.NewTargetOpts(siege.Options{Mode: cubicle.ModeFull, ReapClosed: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	put := func(name string, n int) {
		body := make([]byte, n)
		rng.Read(body)
		if err := tgt.PutFile(name, body); err != nil {
			t.Fatal(err)
		}
	}
	put("/small", 4<<10)
	if bulk {
		put("/bulk", 1<<20)
	}
	return tgt, tapWire(tgt.Sys.Netdev.Wire())
}

// The digests below were recorded at the commit before the packet path
// stopped allocating per frame (PR 11's tree, with only the tap added):
// pooling frames, presizing the peer's receive buffer and the open loop's
// live list may change host time and garbage, never a byte or the order
// of a frame.
//
// To reproduce them, check out that commit, copy this file and
// export_test.go into internal/netdev, and add the tap to its netdev.go:
// a `tap func(toHost bool, frame []byte)` field on Wire,
// `if w.tap != nil { w.tap(false, f) }` before HostSend's
// `w.toDevice = append(w.toDevice, f)`, and
// `if d.wire.tap != nil { d.wire.tap(true, frame) }` before tx's
// `d.wire.toHost = append(d.wire.toHost, frame)`; this test then passes
// there unchanged.
var (
	pinClosedLoop      = wireDigest{0x8f39b0fe, 0xc9aac124, 0x044f543d, 1600, 474, 2210886, 10346}
	pinOpenLoop        = wireDigest{0x683aa560, 0xca33c48f, 0x23169570, 3500, 2500, 2146500, 78000}
	pinOpenLoopOverlap = wireDigest{0xeefc9b27, 0x09c3804a, 0x903c9401, 2100, 1500, 1287900, 46800}
)

func TestWireFramesPinnedClosedLoop(t *testing.T) {
	tgt, digest := pinTarget(t, true)
	fetch := func(path string, n int) {
		for i := 0; i < n; i++ {
			if res, err := tgt.Fetch(path); err != nil || res.Status != 200 {
				t.Fatalf("fetch %s #%d: %+v, %v", path, i, res, err)
			}
		}
	}
	fetch("/small", 10)
	fetch("/bulk", 1)
	fetch("/small", 10)
	fetch("/bulk", 1)
	if got := digest(); got != pinClosedLoop {
		t.Errorf("closed-loop wire differs from the recorded one:\n got  %v\n want %v", got, pinClosedLoop)
	}
}

// The 3 500 rps run is the benchmark's reference rate and never has two
// connections open at once; the 6 000 rps run is past the knee (76 open at once), so
// segments and ACKs of many connections interleave and the order in
// which the driver walks its flights shows on the wire.
func TestWireFramesPinnedOpenLoop(t *testing.T) {
	for _, tc := range []struct {
		rate     float64
		arrivals int
		overlap  bool
		want     wireDigest
	}{
		{3500, 500, false, pinOpenLoop},
		{6000, 300, true, pinOpenLoopOverlap},
	} {
		tgt, digest := pinTarget(t, false)
		st, err := tgt.OpenLoop(siege.OpenLoopOptions{Path: "/small", Rate: tc.rate, Requests: tc.arrivals})
		if err != nil {
			t.Fatal(err)
		}
		if st.OK != tc.arrivals || (st.MaxConns > 1) != tc.overlap {
			t.Fatalf("open loop at %.0f rps: %+v", tc.rate, st)
		}
		if got := digest(); got != tc.want {
			t.Errorf("open-loop wire at %.0f rps differs from the recorded one:\n got  %v\n want %v", tc.rate, got, tc.want)
		}
	}
}
