package cycles

import (
	"sync"
	"testing"
)

// TestMachineBarrierIsMaxOverCores pins the GVT rule: global virtual time
// at a barrier is the maximum over the per-core clocks.
func TestMachineBarrierIsMaxOverCores(t *testing.T) {
	clks := []*Clock{{}, {}, {}, {}}
	m := MachineOver(clks...)
	clks[0].Charge(100)
	clks[1].Charge(700)
	clks[2].Charge(300)
	if got := m.Barrier(); got != 700 {
		t.Fatalf("Barrier() = %d, want 700 (max over cores)", got)
	}
	if got := m.GVT(); got != 700 {
		t.Fatalf("GVT() = %d, want 700", got)
	}
	clks[3].Charge(650) // still behind core 1
	if got := m.Barrier(); got != 700 {
		t.Fatalf("Barrier() = %d, want 700 (no core passed the old GVT)", got)
	}
	clks[0].Charge(1000)
	if got := m.Barrier(); got != 1100 {
		t.Fatalf("Barrier() = %d, want 1100", got)
	}
}

// TestMachineGVTMonotone is the clock-monotonicity property test: per-core
// clocks never regress between barriers (they only ever Charge/AdvanceTo),
// and GVT is monotone across barriers even if a core's clock is reset.
func TestMachineGVTMonotone(t *testing.T) {
	clks := []*Clock{{}, {}, {}}
	m := MachineOver(clks...)
	var last uint64
	charges := []struct {
		core int
		n    uint64
	}{{0, 10}, {1, 500}, {2, 50}, {0, 900}, {1, 1}, {2, 2000}, {0, 3}}
	for i, ch := range charges {
		before := clks[ch.core].Cycles()
		clks[ch.core].Charge(ch.n)
		if after := clks[ch.core].Cycles(); after < before {
			t.Fatalf("step %d: core %d clock regressed %d -> %d", i, ch.core, before, after)
		}
		g := m.Barrier()
		if g < last {
			t.Fatalf("step %d: GVT regressed %d -> %d", i, last, g)
		}
		last = g
	}
	// A reset core must not drag global time backwards.
	clks[2].Reset()
	if g := m.Barrier(); g < last {
		t.Fatalf("GVT regressed after core reset: %d -> %d", last, g)
	}
}

// TestMachineDeterministicAcrossRuns runs the same per-core charge
// schedule on worker goroutines five times and requires the identical GVT
// sequence every run: between barriers each core touches only its own
// clock, so host scheduling cannot perturb virtual time.
func TestMachineDeterministicAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		clks := []*Clock{{}, {}, {}, {}}
		m := MachineOver(clks...)
		var gvts []uint64
		for quantum := 0; quantum < 8; quantum++ {
			var wg sync.WaitGroup
			for core := range clks {
				wg.Add(1)
				go func(core int) {
					defer wg.Done()
					c := clks[core]
					for i := 0; i < 100; i++ {
						c.Charge(uint64(1 + (core+i*7)%13))
					}
				}(core)
			}
			wg.Wait()
			gvts = append(gvts, m.Barrier())
		}
		return gvts
	}
	want := run()
	for r := 1; r < 5; r++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: GVT[%d] = %d, want %d", r, i, got[i], want[i])
			}
		}
	}
}

// TestMachineOverAdoptsClocks checks that MachineOver shares, not copies,
// the adopted clocks.
func TestMachineOverAdoptsClocks(t *testing.T) {
	a, b := &Clock{}, &Clock{}
	m := MachineOver(a, b)
	a.Charge(42)
	b.Charge(7)
	if got := m.Barrier(); got != 42 {
		t.Fatalf("Barrier() = %d, want 42", got)
	}
}
