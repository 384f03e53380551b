package httpd

import (
	"testing"

	"cubicleos/internal/cubicle/cubicletest"
)

// TestRecycledConnStartsClean: a connection dropped from the server's list
// and then poisoned — every field set, the most a request's lifecycle
// could leave — is the one the next accepted connection gets, and it
// reads as a new one.
func TestRecycledConnStartsClean(t *testing.T) {
	s := New(80)
	old := s.takeConn(5)
	s.addConn(old)
	s.dropConn(old)
	cubicletest.Poison(old)
	got := s.takeConn(6)
	if got != old {
		t.Fatal("takeConn did not reuse the dropped connection")
	}
	if err := cubicletest.Fresh(got, s.takeConn(6)); err != nil {
		t.Error(err)
	}
}
