package cycles

// Machine is the multi-core view of virtual time: one Clock per simulated
// core, advanced independently between synchronisation points, plus the
// global-virtual-time (GVT) rule that makes multi-core figures
// deterministic.
//
// The rule is the quantum barrier: cores run private work — charging only
// their own clock — for one scheduling quantum, then all of them reach a
// barrier, and global time is defined as the maximum over the per-core
// clocks at that point. Because no core reads another core's clock between
// barriers, the interleaving of host goroutines cannot leak into virtual
// time: for a fixed seed and core count the per-core cycle sequences, and
// therefore every GVT sample, are identical run to run.
//
// Concurrency contract: a Clock is a plain word with exactly one writer,
// the worker driving that core. Barrier, GVT and the accessors are called
// from the coordinating goroutine, and only after it has synchronised with
// every worker — uksched.SMP.RunQuantum's wg.Wait(), which is precisely
// when a barrier is defined and what makes Barrier's plain reads of the
// core clocks see each worker's last store.
type Machine struct {
	clocks []*Clock
	gvt    uint64
}

// MachineOver adopts existing clocks as the machine's cores, one core per
// clock. The sharded siege driver uses it to treat the boot clock of each
// per-core system shard as that core's clock.
func MachineOver(clocks ...*Clock) *Machine {
	m := &Machine{clocks: make([]*Clock, len(clocks))}
	copy(m.clocks, clocks)
	if len(m.clocks) == 0 {
		m.clocks = []*Clock{{}}
	}
	return m
}

// Barrier is the quantum barrier: it recomputes global virtual time as
// the maximum over the per-core clocks and returns it. GVT is clamped
// monotone — a Clock.Reset on one core can never move global time
// backwards, which is the property the monotonicity tests pin down.
func (m *Machine) Barrier() uint64 {
	max := m.gvt
	for _, c := range m.clocks {
		if v := c.Cycles(); v > max {
			max = v
		}
	}
	m.gvt = max
	return max
}

// GVT returns global virtual time as of the last barrier (0 before the
// first one).
func (m *Machine) GVT() uint64 { return m.gvt }
