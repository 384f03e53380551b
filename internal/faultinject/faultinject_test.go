package faultinject

import (
	"testing"

	"cubicleos/internal/cubicle"
)

func drive(j *Injector, n int, name string) []cubicle.InjectKind {
	out := make([]cubicle.InjectKind, n)
	for i := range out {
		out[i] = j.AtCrossing(name, "sym")
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	cfg := Config{Seed: 42, ProtAtCrossing: 0.1, CFIAtCrossing: 0.05,
		BudgetAtCrossing: 0.05, LeakAtCrossing: 0.05}
	a, b := New(cfg), New(cfg)
	a.Arm()
	b.Arm()
	ka, kb := drive(a, 5000, "RAMFS"), drive(b, 5000, "RAMFS")
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("schedules diverge at decision %d: %v vs %v", i, ka[i], kb[i])
		}
	}
	if a.Fired == 0 {
		t.Fatal("nothing fired over 5000 decisions at 25% total probability")
	}
	cfg.Seed = 43
	c := New(cfg)
	c.Arm()
	kc := drive(c, 5000, "RAMFS")
	same := 0
	for i := range ka {
		if ka[i] == kc[i] {
			same++
		}
	}
	if same == len(ka) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestCrossingLadderFrequencies(t *testing.T) {
	j := New(Config{Seed: 7, ProtAtCrossing: 0.1, CFIAtCrossing: 0.1,
		BudgetAtCrossing: 0.1, LeakAtCrossing: 0.1})
	j.Arm()
	const n = 40_000
	counts := map[cubicle.InjectKind]int{}
	for _, k := range drive(j, n, "X") {
		counts[k]++
	}
	for _, k := range []cubicle.InjectKind{cubicle.InjectProt, cubicle.InjectCFI,
		cubicle.InjectBudget, cubicle.InjectLeak} {
		got := counts[k]
		if got < n/10-n/50 || got > n/10+n/50 {
			t.Errorf("kind %d fired %d of %d times, want ~%d", k, got, n, n/10)
		}
	}
	if counts[cubicle.InjectNone] < n/2 {
		t.Errorf("none-rate %d of %d, want ~%d", counts[cubicle.InjectNone], n, n*6/10)
	}
	if j.Crossings != n {
		t.Errorf("Crossings = %d, want %d", j.Crossings, n)
	}
	if int(j.Fired) != n-counts[cubicle.InjectNone] {
		t.Errorf("Fired = %d, inconsistent with decisions", j.Fired)
	}
}

func TestDisarmedAndZeroConfigNeverFire(t *testing.T) {
	j := New(Config{Seed: 1, ProtAtCrossing: 1.0}) // not armed
	for _, k := range drive(j, 100, "X") {
		if k != cubicle.InjectNone {
			t.Fatal("disarmed injector fired")
		}
	}
	if j.Crossings != 0 {
		t.Errorf("disarmed injector consumed %d draws", j.Crossings)
	}
	z := New(Config{Seed: 1}) // armed, all probabilities zero
	z.Arm()
	for i := 0; i < 100; i++ {
		if z.AtCrossing("X", "s") != cubicle.InjectNone ||
			z.AtWindowOp("X", "op") != cubicle.InjectNone ||
			z.AtRetag("X") != cubicle.InjectNone {
			t.Fatal("zero-probability injector fired")
		}
	}
	if z.Fired != 0 {
		t.Errorf("Fired = %d with zero probabilities", z.Fired)
	}
}

// TestTargetFilterDoesNotShiftStream: decisions for the targeted cubicle
// must be identical whether or not untargeted crossings are interleaved.
func TestTargetFilterDoesNotShiftStream(t *testing.T) {
	cfg := Config{Seed: 99, Target: "RAMFS", ProtAtCrossing: 0.2}
	pure, mixed := New(cfg), New(cfg)
	pure.Arm()
	mixed.Arm()
	want := drive(pure, 1000, "RAMFS")
	var got []cubicle.InjectKind
	for i := 0; i < 1000; i++ {
		if k := mixed.AtCrossing("LWIP", "s"); k != cubicle.InjectNone {
			t.Fatal("injected into a cubicle outside the target filter")
		}
		got = append(got, mixed.AtCrossing("RAMFS", "s"))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("interleaved untargeted crossings shifted the stream at %d", i)
		}
	}
}

// TestDisarmPreservesStreamPosition: provisioning pauses (Disarm/Arm) must
// not consume draws, so the post-pause schedule continues where it left off.
func TestDisarmPreservesStreamPosition(t *testing.T) {
	cfg := Config{Seed: 5, ProtAtCrossing: 0.3}
	ref, paused := New(cfg), New(cfg)
	ref.Arm()
	paused.Arm()
	want := drive(ref, 200, "X")
	got := drive(paused, 100, "X")
	paused.Disarm()
	drive(paused, 57, "X") // ignored, consumes nothing
	paused.Arm()
	got = append(got, drive(paused, 100, "X")...)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pause shifted the stream at decision %d", i)
		}
	}
}

func TestWindowOpAndRetagSites(t *testing.T) {
	j := New(Config{Seed: 11, ProtAtWindowOp: 0.5, ProtAtRetag: 0.5})
	j.Arm()
	firedW, firedR := 0, 0
	for i := 0; i < 1000; i++ {
		if j.AtWindowOp("X", "window_open") == cubicle.InjectProt {
			firedW++
		}
		if j.AtRetag("X") == cubicle.InjectProt {
			firedR++
		}
	}
	if firedW < 400 || firedW > 600 {
		t.Errorf("window-op fires = %d of 1000 at p=0.5", firedW)
	}
	if firedR < 400 || firedR > 600 {
		t.Errorf("retag fires = %d of 1000 at p=0.5", firedR)
	}
	if j.WindowOps != 1000 || j.Retags != 1000 {
		t.Errorf("site counters = %d/%d, want 1000/1000", j.WindowOps, j.Retags)
	}
}

// TestWireDropScheduleDeterministic: the wire-drop site must produce the
// same drop schedule for the same seed, and its per-key stream must be
// independent of the crossing streams — interleaving crossing decisions
// (whose count varies with workload timing) must not shift which frames
// are lost.
func TestWireDropScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, DropAtWire: 0.1, ProtAtCrossing: 0.1}
	wire := func(j *Injector, n, key int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = j.AtWire(key)
		}
		return out
	}
	a, b := New(cfg), New(cfg)
	a.Arm()
	b.Arm()
	want := wire(a, 5000, 0)
	// Same seed, but crossing draws interleaved between wire draws.
	got := make([]bool, 0, 5000)
	for i := 0; i < 5000; i++ {
		if i%3 == 0 {
			b.AtCrossing("RAMFS", "sym")
		}
		got = append(got, b.AtWire(0))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("crossing draws shifted the wire schedule at frame %d", i)
		}
	}
	if a.WireDraws != 5000 || a.Fired == 0 {
		t.Fatalf("WireDraws=%d Fired=%d over 5000 frames at p=0.1", a.WireDraws, a.Fired)
	}
	// Different backend keys get independent schedules.
	c := New(cfg)
	c.Arm()
	other := wire(c, 5000, 1)
	same := 0
	for i := range want {
		if want[i] == other[i] {
			same++
		}
	}
	if same == len(want) {
		t.Fatal("backend keys 0 and 1 produced identical drop schedules")
	}
	// Disarmed or unconfigured sites consume no draw.
	d := New(Config{Seed: 42})
	d.Arm()
	if d.AtWire(0) || d.WireDraws != 0 {
		t.Fatal("wire site drew with DropAtWire unset")
	}
}

// TestRouteChaosLadder: the per-route kill/slow ladder fires at roughly
// the configured rates, deterministically per backend key.
func TestRouteChaosLadder(t *testing.T) {
	cfg := Config{Seed: 9, KillAtRoute: 0.05, SlowAtRoute: 0.15}
	j, k := New(cfg), New(cfg)
	j.Arm()
	k.Arm()
	kills, slows := 0, 0
	for i := 0; i < 10000; i++ {
		d := j.AtRoute(2)
		if d != k.AtRoute(2) {
			t.Fatalf("route schedules diverge at decision %d", i)
		}
		switch d {
		case RouteKill:
			kills++
		case RouteSlow:
			slows++
		}
	}
	if kills < 350 || kills > 650 {
		t.Errorf("kills = %d of 10000 at p=0.05", kills)
	}
	if slows < 1200 || slows > 1800 {
		t.Errorf("slows = %d of 10000 at p=0.15", slows)
	}
	if j.Routes != 10000 {
		t.Errorf("route draws = %d, want 10000", j.Routes)
	}
}
