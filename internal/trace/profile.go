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
// to the cubicle in that register. On top
// of the exact span attribution, an optional virtual-clock sampler ticks
// every Period cycles and counts one sample against the running cubicle —
// the flat profile a hardware perf-style sampler would deliver.
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

	period     uint64
	nextSample uint64
	samples    [profDim]uint64
	smpOvf     map[int32]uint64
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

// tick is the clock-advance observer driving the sampler: every sample
// point the clock passed counts one sample against the running cubicle.
func (p *profiler) tick(now uint64) {
	if now < p.nextSample {
		return
	}
	next := cycles.NextTick(p.nextSample, p.period, now)
	n := (next - p.nextSample) / p.period
	p.nextSample = next
	if i := uint32(p.cur + 1); i < profDim {
		p.samples[i] += n
	} else {
		if p.smpOvf == nil {
			p.smpOvf = make(map[int32]uint64)
		}
		p.smpOvf[p.cur] += n
	}
}

// forEach visits every cubicle with attributed cycles or samples.
func (p *profiler) forEach(fn func(cub int32, cyc, samples uint64)) {
	for i := 0; i < profDim; i++ {
		if p.cycles[i] == 0 && p.samples[i] == 0 {
			continue
		}
		fn(int32(i-1), p.cycles[i], p.samples[i])
	}
	for cub, cyc := range p.cycOvf {
		fn(cub, cyc, p.smpOvf[cub])
	}
	for cub, n := range p.smpOvf {
		if _, dup := p.cycOvf[cub]; !dup {
			fn(cub, 0, n)
		}
	}
}

// SwitchCubicle informs the profiler that execution switched to cub. The
// monitor calls this from every crossing frame push/pop.
func (t *Tracer) SwitchCubicle(cub int) {
	t.prof.switchTo(int32(cub))
}

// EnableSampling starts the virtual-clock sampler with the given period
// in cycles, hooking the clock's advance observer. A period of 0 disables
// sampling again.
func (t *Tracer) EnableSampling(period uint64) {
	t.prof.period = period
	if period == 0 {
		t.clock.SetOnAdvance(nil)
		return
	}
	t.prof.nextSample = t.clock.Cycles() + period
	t.clock.SetOnAdvance(t.prof.tick)
}

// ProfileEntry is one cubicle's row of the cycle profile.
type ProfileEntry struct {
	Cubicle int     `json:"cubicle"`
	Name    string  `json:"name"`
	Cycles  uint64  `json:"cycles"`
	Percent float64 `json:"percent"`
	Samples uint64  `json:"samples"`
}

// Profile is the per-cubicle "where did the time go" report.
type Profile struct {
	// TotalCycles is the sum over entries: the virtual clock minus the
	// cycle at which tracing was enabled.
	TotalCycles uint64         `json:"total_cycles"`
	Samples     uint64         `json:"samples"`
	Period      uint64         `json:"sample_period,omitempty"`
	Entries     []ProfileEntry `json:"entries"`
}

// Profile flushes the open span and returns the per-cubicle cycle
// profile, sorted by descending cycles (ties by cubicle ID).
func (t *Tracer) Profile() Profile {
	t.prof.flush()
	p := Profile{Period: t.prof.period}
	t.prof.forEach(func(cub int32, cyc, n uint64) {
		p.TotalCycles += cyc
		p.Entries = append(p.Entries, ProfileEntry{
			Cubicle: int(cub),
			Name:    t.Name(int(cub)),
			Cycles:  cyc,
			Samples: n,
		})
	})
	for i := range p.Entries {
		if p.TotalCycles > 0 {
			p.Entries[i].Percent = 100 * float64(p.Entries[i].Cycles) / float64(p.TotalCycles)
		}
		p.Samples += p.Entries[i].Samples
	}
	sort.Slice(p.Entries, func(i, j int) bool {
		if p.Entries[i].Cycles != p.Entries[j].Cycles {
			return p.Entries[i].Cycles > p.Entries[j].Cycles
		}
		return p.Entries[i].Cubicle < p.Entries[j].Cubicle
	})
	return p
}
