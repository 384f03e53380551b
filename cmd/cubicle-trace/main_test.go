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

// TestCheckRun: a run with no request, a negative file size or fewer than
// one core is a usage error. -size -1 used to panic in makeslice,
// -requests 0 ran nothing and passed -check, and -cores 0 ran one core,
// every one but the first with exit status 0.
func TestCheckRun(t *testing.T) {
	for _, c := range []struct {
		requests, size, cores int
		ok                    bool
	}{
		{20, 16 << 10, 1, true}, {1, 0, 4, true},
		{20, -1, 1, false},
		{0, 16 << 10, 1, false}, {-3, 16 << 10, 1, false},
		{20, 16 << 10, 0, false}, {20, 16 << 10, -2, false},
	} {
		if err := checkRun(c.requests, c.size, c.cores); (err == nil) != c.ok {
			t.Errorf("checkRun(%d, %d, %d) = %v, want ok=%v", c.requests, c.size, c.cores, err, c.ok)
		}
	}
}
