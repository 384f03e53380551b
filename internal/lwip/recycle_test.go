package lwip

import (
	"testing"

	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/netdev"
)

// TestRecycledSockStartsClean: a reaped socket, poisoned — every field
// set, the most a connection's lifecycle could leave — is the one the
// next socket gets, and it reads as a new one.
func TestRecycledSockStartsClean(t *testing.T) {
	l := New()
	old := l.takeSock(3)
	cubicletest.Poison(old)
	l.spareSocks.Put(old)
	got := l.takeSock(4)
	if got != old {
		t.Fatal("takeSock did not reuse the reaped socket")
	}
	if err := cubicletest.Fresh(got, l.takeSock(4)); err != nil {
		t.Error(err)
	}
}

// TestRecycledPeerConnStartsClean: a connection that sent a request and
// was handed back with Recycle, then poisoned, is the one the peer's next
// connection gets, and it reads as a new one.
func TestRecycledPeerConnStartsClean(t *testing.T) {
	p := NewPeer(&netdev.Wire{})
	old := p.Connect(80)
	old.Send([]byte("GET / HTTP/1.0\r\n\r\n"))
	old.Recycle()
	cubicletest.Poison(old)
	got := p.takeConn(40001, 80)
	if got != old {
		t.Fatal("takeConn did not reuse the recycled connection")
	}
	if err := cubicletest.Fresh(got, p.takeConn(40001, 80)); err != nil {
		t.Error(err)
	}
}
