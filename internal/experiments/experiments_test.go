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

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	rows, err := Fig6(shapeSize)
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
	runs := NewFig10Runs(shapeSize)
	a, errA := runs.Fig10a()
	b, errB := runs.Fig10b()
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	checkClaims(t, Results{Fig10a: a, Fig10b: b}, "10a", "10b")
}

func TestFig5Graph(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	g, err := Fig5(4)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 5 topology: the edges the paper draws must exist.
	// The measurement window serves files read-only, so the write-side
	// RAMFS->ALLOC edge of the full graph does not appear here.
	for _, edge := range [][2]string{
		{"NGINX", "LWIP"}, {"NGINX", "VFSCORE"}, {"NGINX", "TIME"}, {"NGINX", "PLAT"},
		{"LWIP", "NETDEV"}, {"VFSCORE", "RAMFS"},
		{"NGINX", "ALLOC"}, {"LWIP", "ALLOC"},
	} {
		if g.Count(edge[0], edge[1]) == 0 {
			t.Errorf("missing edge %s -> %s", edge[0], edge[1])
		}
	}
	// ALLOC serves every component's allocations in this deployment: it
	// must receive a substantial share of all crossings (Figure 5 shows
	// it as one of the hottest cubicles).
	var allocIn, total uint64
	for _, e := range g.Edges {
		total += e.Count
		if e.To == "ALLOC" {
			allocIn += e.Count
		}
	}
	if allocIn*10 < total {
		t.Errorf("ALLOC receives only %d of %d calls; expected a hot allocator", allocIn, total)
	}
}

func TestFig8Graph(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	g, err := Fig8(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range [][2]string{
		{"SQLITE", "VFSCORE"}, {"VFSCORE", "RAMFS"}, {"SQLITE", "TIME"},
		{"SQLITE", "PLAT"}, {"SQLITE", "ALLOC"}, {"BOOT", "PLAT"},
	} {
		if g.Count(edge[0], edge[1]) == 0 {
			t.Errorf("missing edge %s -> %s", edge[0], edge[1])
		}
	}
	// SQLITE->VFSCORE must dominate SQLITE->ALLOC (each cubicle uses its
	// own allocator; ALLOC is coarse-grained only).
	if g.Count("SQLITE", "ALLOC") >= g.Count("SQLITE", "VFSCORE") {
		t.Error("ALLOC hotter than VFSCORE in the SQLite deployment")
	}
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

// TestGroupedDeploymentCheaper: CubicleOS-3 must cost less than
// CubicleOS-4 on the same workload.
func TestGroupedDeploymentCheaper(t *testing.T) {
	if testing.Short() {
		t.Skip("shape tests skipped in -short")
	}
	c3, err := cubicleRun(cubicle.ModeFull, Groups3, 10)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := cubicleRun(cubicle.ModeFull, Groups4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m := meanSlowdown(c4, c3); m < 1.0 {
		t.Errorf("separating RAMFS made queries cheaper (%.2f)", m)
	}
}
