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

// TestCheckChoices: an unknown -format or -mode, and an -until without
// -replay, are usage errors refused before anything boots. -format bogus
// used to run the whole workload and then exit 1, -mode bogus exited 1,
// and -until without -replay was ignored with exit status 0.
func TestCheckChoices(t *testing.T) {
	for _, c := range []struct {
		format, mode string
		replay       bool
		until        uint64
		ok           bool
	}{
		{"chrome", "full", false, 0, true}, {"prom", "unikraft", false, 0, true},
		{"json", "no-mpk", true, 0, true}, {"profile", "no-acl", true, 3_000_000, true},
		{"bogus", "full", false, 0, false}, {"", "full", false, 0, false},
		{"chrome", "bogus", false, 0, false},
		{"chrome", "full", false, 1000, false},
	} {
		if err := checkChoices(c.format, c.mode, c.replay, c.until); (err == nil) != c.ok {
			t.Errorf("checkChoices(%q, %q, %v, %d) = %v, want ok=%v", c.format, c.mode, c.replay, c.until, err, c.ok)
		}
	}
}
