package lwip

import (
	"bytes"
	"testing"
)

// TestSnapshotRoundTrip: a stack restored from a Snapshot blob holds the
// same sockets, rebuilds its listener and connection maps, and snapshots
// to the same bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	l := New()
	l.nextFD, l.stage = 4, 0x7000
	l.SegmentsTx, l.SegmentsRx, l.TxBackpressure, l.Reaped = 91, 87, 3, 2
	l.order = []*sock{
		{fd: 1, state: stListen, localPort: 80, backlog: 16,
			rx: ring{buf: 0x10000, cap: DefaultRecvBuf}, tx: ring{buf: 0x20000, cap: DefaultSendBuf}},
		{fd: 2, state: stClosed},
		{fd: 3, state: stFinSent, localPort: 80, remotePort: 40001,
			rx: ring{buf: 0x30000, cap: 4096}, tx: ring{buf: 0x40000, cap: 8192},
			sndNxt: 1001, sndUna: 1001, rcvNxt: 77, peerWnd: 65535, finRcvd: true},
	}
	blob, err := l.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Restore(nil, blob); err != nil {
		t.Fatal(err)
	}
	if r.listeners[80] == nil || r.listeners[80].fd != 1 || len(r.listeners) != 1 {
		t.Errorf("listeners = %v, want fd 1 on port 80", r.listeners)
	}
	if c := r.conns[connKey{local: 80, remote: 40001}]; c == nil || c.fd != 3 || len(r.conns) != 1 {
		t.Errorf("conns = %v, want fd 3 on 80 <- 40001", r.conns)
	}
	if len(r.socks) != 3 {
		t.Errorf("%d sockets, want 3", len(r.socks))
	}
	again, err := r.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("round trip changed the blob:\n got %x\nwant %x", again, blob)
	}
}
