package trace

import (
	"sort"

	"cubicleos/internal/cycles"
)

// profiler attributes virtual cycles to the cubicle that was executing
// when they were charged. Threads are cooperatively scheduled on one
// clock, so a single "currently executing cubicle" register is exact —
// the monitor tells the profiler about every cubicle switch (trampoline
// call enter and exit, RunAs), and every clock charge in between belongs
// to the cubicle in that register.
//
// profDim bounds the profiler's flat attribution arrays: slot cub+1
// covers cubicles -1 (runtime) through edgeDim-1 with a plain array
// store on the hot path; IDs outside fall back to an overflow map.
const profDim = edgeDim + 1

type profiler struct {
	clock  *cycles.Clock
	cur    int32  // currently executing cubicle
	mark   uint64 // clock value when cur started executing
	cycles [profDim]uint64
	cycOvf map[int32]uint64
}

func (p *profiler) init(clock *cycles.Clock) {
	p.clock = clock
	p.cur = 0 // boot executes as the monitor
	p.mark = clock.Cycles()
}

// switchTo flushes the span of the previously running cubicle and makes
// cub the attribution target.
func (p *profiler) switchTo(cub int32) {
	now := p.clock.Cycles()
	if i := uint32(p.cur + 1); i < profDim {
		p.cycles[i] += now - p.mark
	} else {
		if p.cycOvf == nil {
			p.cycOvf = make(map[int32]uint64)
		}
		p.cycOvf[p.cur] += now - p.mark
	}
	p.cur = cub
	p.mark = now
}

// flush attributes the still-open span without changing the target.
func (p *profiler) flush() {
	cur := p.cur
	p.switchTo(cur)
}

// forEach visits every cubicle with attributed cycles.
func (p *profiler) forEach(fn func(cub int32, cyc uint64)) {
	for i := 0; i < profDim; i++ {
		if p.cycles[i] != 0 {
			fn(int32(i-1), p.cycles[i])
		}
	}
	for cub, cyc := range p.cycOvf {
		fn(cub, cyc)
	}
}

// SwitchCubicle informs the profiler that execution switched to cub. The
// monitor calls this from every crossing frame push/pop.
func (t *Tracer) SwitchCubicle(cub int) {
	t.prof.switchTo(int32(cub))
}

// ProfileEntry is one cubicle's row of the cycle profile.
type ProfileEntry struct {
	Cubicle int     `json:"cubicle"`
	Name    string  `json:"name"`
	Cycles  uint64  `json:"cycles"`
	Percent float64 `json:"percent"`
}

// Profile is the per-cubicle "where did the time go" report.
type Profile struct {
	// TotalCycles is the sum over entries: the virtual clock minus the
	// cycle at which tracing was enabled.
	TotalCycles uint64         `json:"total_cycles"`
	Entries     []ProfileEntry `json:"entries"`
}

// Profile flushes the open span and returns the per-cubicle cycle
// profile, sorted by descending cycles (ties by cubicle ID).
func (t *Tracer) Profile() Profile {
	t.prof.flush()
	var p Profile
	t.prof.forEach(func(cub int32, cyc uint64) {
		p.TotalCycles += cyc
		p.Entries = append(p.Entries, ProfileEntry{
			Cubicle: int(cub),
			Name:    t.Name(int(cub)),
			Cycles:  cyc,
		})
	})
	for i := range p.Entries {
		if p.TotalCycles > 0 {
			p.Entries[i].Percent = 100 * float64(p.Entries[i].Cycles) / float64(p.TotalCycles)
		}
	}
	sort.Slice(p.Entries, func(i, j int) bool {
		if p.Entries[i].Cycles != p.Entries[j].Cycles {
			return p.Entries[i].Cycles > p.Entries[j].Cycles
		}
		return p.Entries[i].Cubicle < p.Entries[j].Cubicle
	})
	return p
}
