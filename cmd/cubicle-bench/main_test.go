package main

import (
	"os"
	"strings"
	"testing"

	"cubicleos/internal/experiments"
)

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

// TestDocsQuoteTheClaims: EXPERIMENTS.md quotes every claim line
// cubicle-bench -fig all -size 100 prints, and every claim line it or
// README.md quotes is one of them. Figure 7's section, as -fig 7 prints
// it, is byte for byte fig7Golden: the paper's ≈2× large-file result.
func TestDocsQuoteTheClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("draws every figure at size 100")
	}
	var out strings.Builder
	d := &drawing{100, 8, experiments.Runs{}}
	for _, f := range figures {
		var section strings.Builder
		if err := f.draw(&section, d); err != nil {
			t.Fatal(err)
		}
		out.WriteString(section.String())
		if f.name == "7" {
			checkFig7(t, "==== "+f.title+" ====\n"+section.String()+"\n")
		}
	}
	printed := claimLines(out.String())
	for _, doc := range []string{"EXPERIMENTS.md", "README.md"} {
		b, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		quoted := claimLines(string(b))
		for line := range quoted {
			if !printed[line] {
				t.Errorf("%s quotes a claim line cubicle-bench does not print:\n%s", doc, line)
			}
		}
		if doc == "EXPERIMENTS.md" && len(quoted) != len(printed) {
			t.Errorf("EXPERIMENTS.md quotes %d of the %d claim lines", len(quoted), len(printed))
		}
	}
}

// claimLines returns the lines of text that start as a claim line or its
// header does.
func claimLines(text string) map[string]bool {
	lines := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		for _, c := range experiments.Claims {
			if strings.HasPrefix(line, column(c.Quantity)) || strings.HasPrefix(line, column("Figure "+c.Fig)) {
				lines[line] = true
			}
		}
	}
	return lines
}

// fig7Golden is what cubicle-bench -fig 7 prints.
const fig7Golden = "testdata/fig7_seed.golden"

// checkFig7 fails unless got is fig7Golden, naming the first line that
// differs and the command that rewrites the golden.
func checkFig7(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(fig7Golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of text)"
	}
	t.Errorf("Figure 7 differs from %s at line %d:\n got %q\nwant %q\n"+
		"a change that moves it on purpose rewrites it: go run ./cmd/cubicle-bench -fig 7 > cmd/cubicle-bench/%s",
		fig7Golden, i+1, at(g), at(w), fig7Golden)
}
