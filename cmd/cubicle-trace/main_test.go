package main

import (
	"testing"

	"cubicleos/internal/trace"
)

// TestCheckRing: a ring that leaves no tracer (below 1) or that no ring
// can hold (past trace.MaxRing) is refused before anything boots.
func TestCheckRing(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{
		{-1, false}, {0, false}, {1, true}, {16, true}, {1 << 16, true},
		{trace.MaxRing, true}, {trace.MaxRing + 1, false},
	} {
		if err := checkRing(c.n); (err == nil) != c.ok {
			t.Errorf("checkRing(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
}
