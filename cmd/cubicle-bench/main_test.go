package main

import "testing"

// TestCheckFlags: a -fig that names no figure, a -size below 1 and a
// -requests below 1 are usage errors. Each of them used to run: -fig 42
// printed nothing, -requests 0 an empty Figure 5 and -size -1 size 100,
// every one with exit status 0.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		fig            string
		size, requests int
		ok             bool
	}{
		{"all", 100, 8, true}, {"5", 1, 1, true}, {"10b", 20, 8, true},
		{"42", 100, 8, false}, {"", 100, 8, false}, {"10", 100, 8, false}, {"ALL", 100, 8, false},
		{"6", 0, 8, false}, {"6", -1, 8, false},
		{"5", 100, 0, false}, {"5", 100, -3, false},
	} {
		if err := checkFlags(c.fig, c.size, c.requests); (err == nil) != c.ok {
			t.Errorf("checkFlags(%q, %d, %d) = %v, want ok=%v", c.fig, c.size, c.requests, err, c.ok)
		}
	}
	// Every figure is a -fig value, each named once.
	seen := map[string]bool{}
	for _, f := range figures {
		if err := checkFlags(f.name, 20, 8); err != nil || seen[f.name] {
			t.Errorf("figure %q: checkFlags %v, named before %v", f.name, err, seen[f.name])
		}
		seen[f.name] = true
	}
}
