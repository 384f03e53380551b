package uksched

import (
	"reflect"
	"testing"

	"cubicleos/internal/cycles"
)

// countTask steps a fixed number of times, charging its core clock, then
// reports Done.
type countTask struct {
	left int
	cost uint64
	clk  *cycles.Clock
}

func (t *countTask) Step() Status {
	if t.left <= 0 {
		return Done
	}
	t.left--
	if t.clk != nil {
		t.clk.Charge(t.cost)
	}
	if t.left == 0 {
		return Done
	}
	return Yield
}

// run builds a fixed 4-core workload over a fresh machine and returns the
// observable counters after it completes.
func runSMPWorkload(t *testing.T) ([]uint64, uint64, []uint64, uint64) {
	t.Helper()
	const cores = 4
	clks := []*cycles.Clock{{}, {}, {}, {}}
	m := cycles.MachineOver(clks...)
	s := NewSMP(cores)
	s.Machine = m
	for c := 0; c < cores; c++ {
		// Deliberately unbalanced: core 0 gets most of the tasks.
		n := 1
		if c == 0 {
			n = 5
		}
		for i := 0; i < n; i++ {
			s.Add(c, "w", &countTask{left: 3 + (c+i*7)%5, cost: uint64(10 + c), clk: clks[c]})
		}
	}
	if !s.Run(4) {
		t.Fatalf("workload did not complete; blocked: %v", s.Blocked())
	}
	clocks := make([]uint64, cores)
	for c := 0; c < cores; c++ {
		clocks[c] = clks[c].Cycles()
	}
	return append([]uint64(nil), s.Steps...), s.Quanta, clocks, m.GVT()
}

// TestSMPDeterministicAcrossRuns pins the determinism contract: for a
// fixed task set and core count, five runs produce identical per-core
// step counts, quanta, per-core clocks and GVT — no matter
// how the host scheduler interleaves the worker goroutines. Run under
// -race this is also the data-race gate for the quantum/barrier protocol.
func TestSMPDeterministicAcrossRuns(t *testing.T) {
	steps0, quanta0, clocks0, gvt0 := runSMPWorkload(t)
	for run := 1; run < 5; run++ {
		steps, quanta, clocks, gvt := runSMPWorkload(t)
		if !reflect.DeepEqual(steps, steps0) || quanta != quanta0 ||
			!reflect.DeepEqual(clocks, clocks0) || gvt != gvt0 {
			t.Fatalf("run %d diverged:\n got steps=%v quanta=%d clocks=%v gvt=%d\nwant steps=%v quanta=%d clocks=%v gvt=%d",
				run, steps, quanta, clocks, gvt, steps0, quanta0, clocks0, gvt0)
		}
	}
}

// TestSMPSingleCoreMatchesScheduler asserts a 1-core SMP scheduler steps
// the same task sequence as the legacy round-robin Scheduler.
func TestSMPSingleCoreMatchesScheduler(t *testing.T) {
	mk := func(add func(name string, task Task)) {
		for i := 0; i < 4; i++ {
			add("w", &countTask{left: 2 + i})
		}
	}
	legacy := New()
	mk(func(n string, task Task) { legacy.Add(n, task) })
	for legacy.Len() > 0 {
		if !legacy.RunOnce() {
			t.Fatalf("legacy scheduler stalled")
		}
	}

	s := NewSMP(1)
	mk(func(n string, task Task) { s.Add(0, n, task) })
	if !s.Run(2) {
		t.Fatalf("SMP(1) did not complete")
	}
	if s.Steps[0] != legacy.Steps {
		t.Fatalf("SMP(1) steps = %d, legacy = %d", s.Steps[0], legacy.Steps)
	}
}

// TestSMPBlockedTasksStopRun asserts the idle cut-off fires when every
// task blocks forever, and Blocked names them.
func TestSMPBlockedTasksStopRun(t *testing.T) {
	s := NewSMP(2)
	s.AddFunc(0, "stuck-a", func() Status { return Block })
	s.AddFunc(1, "stuck-b", func() Status { return Block })
	if s.Run(3) {
		t.Fatalf("Run reported completion with blocked tasks")
	}
	if got := s.Blocked(); len(got) != 2 {
		t.Fatalf("Blocked() = %v, want both stuck tasks", got)
	}
}

// TestSMPPerCoreClocksAndGVTMonotone drives quanta by hand and asserts
// the property the cost model depends on: no core clock ever regresses,
// and GVT is non-decreasing across barriers and always >= every
// observation made at a barrier.
func TestSMPPerCoreClocksAndGVTMonotone(t *testing.T) {
	const cores = 3
	clks := []*cycles.Clock{{}, {}, {}}
	m := cycles.MachineOver(clks...)
	s := NewSMP(cores)
	s.Machine = m
	for c := 0; c < cores; c++ {
		s.Add(c, "w", &countTask{left: 8, cost: uint64(100 * (c + 1)), clk: clks[c]})
	}
	prevClocks := make([]uint64, cores)
	prevGVT := uint64(0)
	for s.Len() > 0 {
		s.RunQuantum()
		for c := 0; c < cores; c++ {
			now := clks[c].Cycles()
			if now < prevClocks[c] {
				t.Fatalf("core %d clock regressed: %d -> %d", c, prevClocks[c], now)
			}
			prevClocks[c] = now
		}
		gvt := m.GVT()
		if gvt < prevGVT {
			t.Fatalf("GVT regressed: %d -> %d", prevGVT, gvt)
		}
		for c := 0; c < cores; c++ {
			if gvt < prevClocks[c] {
				t.Fatalf("GVT %d below core %d clock %d at barrier", gvt, c, prevClocks[c])
			}
		}
		prevGVT = gvt
	}
}
