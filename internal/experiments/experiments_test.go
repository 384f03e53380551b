package experiments

import (
	"errors"
	"slices"
	"testing"

	"cubicleos/internal/cubicle"
)

const shapeSize = 30 // reduced speedtest scale keeps the suite fast

// checkClaims fails every claim of figs whose measured value leaves its
// gate. The gates hold the qualitative targets: who wins, by roughly what
// factor, and where crossovers fall. Absolute tolerances are wide (the cost
// model is calibrated, not measured), but orderings and factor ranges must
// hold.
func checkClaims(t *testing.T, r Results, figs ...string) {
	t.Helper()
	for _, c := range Claims {
		if !slices.Contains(figs, c.Fig) {
			continue
		}
		if v := c.Measure(r); c.Gate != nil && !c.Gate.Holds(v) {
			t.Errorf("Figure %s, %s = %.3f, want %s (paper %s)", c.Fig, c.Quantity, v, c.Gate.Text, c.Paper)
		}
	}
}

// runs holds the records of every deployment the tests below read, so
// that each runs once: Figure 8's graph is Figure 6's full-isolation run.
var runs = Runs{}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	rows, err := runs.Fig6(shapeSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 31 {
		t.Fatalf("expected 31 queries, got %d", len(rows))
	}
	checkClaims(t, Results{Fig6: rows}, "6")
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	rows, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, Results{Fig7: rows}, "7")
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	a, errA := runs.Fig10a(shapeSize)
	b, errB := runs.Fig10b(shapeSize)
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	checkClaims(t, Results{Fig10a: a, Fig10b: b}, "10a", "10b")
}

// TestFig5Graph: the measurement window serves files read-only, so the
// write-side RAMFS → ALLOC edge of the full graph is not among the edges
// Figure 5's claims gate.
func TestFig5Graph(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	g, err := Fig5(4)
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, Results{Fig5: g}, "5")
}

func TestFig8Graph(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	g, err := runs.Fig8(shapeSize)
	if err != nil {
		t.Fatal(err)
	}
	checkClaims(t, Results{Fig8: g}, "8")
}

// TestSQLiteTargetModes checks the deployment helper across modes quickly.
func TestSQLiteTargetModes(t *testing.T) {
	for _, mode := range []cubicle.Mode{cubicle.ModeUnikraft, cubicle.ModeFull} {
		tgt, err := NewSQLiteTarget(mode, nil, 5, UnikraftWorkScale)
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.Setup(); err != nil {
			t.Fatal(err)
		}
		c, err := tgt.RunQuery(100)
		if err != nil {
			t.Fatal(err)
		}
		if c == 0 {
			t.Error("query consumed no cycles")
		}
	}
}
