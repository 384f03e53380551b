// Package dash renders the cubicle-top terminal dashboard: a live view of
// a running deployment built entirely from the observability layer — the
// monitor's architectural counters, the virtual-time metrics ring and the
// tracer's per-edge latency digests. Each frame is a pure function of
// monitor state plus the previous frame's totals (for rates), so frames
// are deterministic in virtual time and renderable from tests without a
// terminal.
package dash

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
)

// Frame bounds: the per-edge latency table shows the topEdges busiest
// edges, and the call-rate sparkline the last sparkWidth samples.
const (
	topEdges   = 8
	sparkWidth = 32
)

// Options configures frame rendering.
type Options struct {
	// ANSI prefixes each frame with a clear-screen + home sequence.
	ANSI bool
}

// frameTotals is the counter snapshot rates are computed against.
type frameTotals struct {
	cycle                          uint64
	calls, faults, sheds           uint64
	retries, shootdowns, contained uint64
	edgeCalls                      map[cubicle.Edge]uint64
}

// Dash renders frames of one monitor's state.
type Dash struct {
	m     *cubicle.Monitor
	w     io.Writer
	o     Options
	names map[cubicle.ID]string
	prev  frameTotals
	frame int
}

// New attaches a dashboard to a monitor. The first frame shows lifetime
// rates; subsequent frames show rates over the span since the previous
// frame.
func New(m *cubicle.Monitor, w io.Writer, o Options) *Dash {
	d := &Dash{m: m, w: w, o: o, names: map[cubicle.ID]string{}}
	for _, c := range m.Cubicles() {
		d.names[c.ID] = c.Name
	}
	return d
}

func (d *Dash) name(id cubicle.ID) string {
	if n, ok := d.names[id]; ok {
		return n
	}
	return fmt.Sprintf("#%d", id)
}

func (d *Dash) totalsNow() frameTotals {
	s := &d.m.Stats
	ft := frameTotals{
		cycle: d.m.Clock.Cycles(),
		calls: s.CallsTotal, faults: s.Faults, sheds: s.Sheds,
		retries: s.Retries, shootdowns: s.TLBShootdowns, contained: s.ContainedFaults,
		edgeCalls: make(map[cubicle.Edge]uint64, len(s.Calls)),
	}
	for e, n := range s.Calls {
		ft.edgeCalls[e] = n
	}
	return ft
}

// rate converts a counter delta over a cycle span to events per virtual
// second.
func rate(delta, span uint64) float64 {
	if span == 0 {
		return 0
	}
	return float64(delta) * float64(cycles.FrequencyHz) / float64(span)
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a block-character strip scaled to the peak.
func sparkline(vals []float64, width int) (string, float64) {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	var peak float64
	for _, v := range vals {
		if v > peak {
			peak = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		i := 0
		if peak > 0 {
			i = int(v / peak * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String(), peak
}

// Frame renders one frame and advances the rate baseline.
func (d *Dash) Frame() {
	cur := d.totalsNow()
	prev := d.prev
	span := cur.cycle - prev.cycle
	d.frame++

	var sb strings.Builder
	if d.o.ANSI {
		sb.WriteString("\x1b[2J\x1b[H")
	}
	fmt.Fprintf(&sb, "cubicle-top — virtual %8.3f s   cores=%d   frame %d\n",
		float64(cur.cycle)/float64(cycles.FrequencyHz), d.m.Cores(), d.frame)
	fmt.Fprintf(&sb, "calls %d (%.0f/s)   faults %d (%.0f/s)   sheds %d (%.0f/s)   retries %d (%.0f/s)   shootdowns %d (%.0f/s)\n",
		cur.calls, rate(cur.calls-prev.calls, span),
		cur.faults, rate(cur.faults-prev.faults, span),
		cur.sheds, rate(cur.sheds-prev.sheds, span),
		cur.retries, rate(cur.retries-prev.retries, span),
		cur.shootdowns, rate(cur.shootdowns-prev.shootdowns, span))

	// Health ladder: one badge per cubicle, restart counts when non-zero.
	sb.WriteString("health ")
	for _, c := range d.m.Cubicles() {
		if c.ID == cubicle.MonitorID {
			continue
		}
		badge := strings.ToLower(c.Health().String())
		if r := c.Restarts(); r > 0 {
			badge = fmt.Sprintf("%s(r%d)", badge, r)
		}
		fmt.Fprintf(&sb, " %s=%s", c.Name, badge)
	}
	sb.WriteByte('\n')

	// Per-cubicle crossing rates: calls into each callee over the span.
	type cubRate struct {
		id    cubicle.ID
		calls uint64
	}
	in := map[cubicle.ID]uint64{}
	for e, n := range cur.edgeCalls {
		in[e.To] += n - prev.edgeCalls[e]
	}
	rows := make([]cubRate, 0, len(in))
	for id, n := range in {
		rows = append(rows, cubRate{id, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].calls != rows[j].calls {
			return rows[i].calls > rows[j].calls
		}
		return rows[i].id < rows[j].id
	})
	fmt.Fprintf(&sb, "\n%-12s %10s %10s\n", "cubicle", "calls", "rate/s")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %10d %10.0f\n", d.name(r.id), r.calls, rate(r.calls, span))
	}

	// Per-edge latency digests, when the tracer is attached.
	if trc := d.m.Tracer(); trc != nil {
		if sums := trc.EdgeSummaries(); len(sums) > 0 {
			if len(sums) > topEdges {
				sums = sums[:topEdges]
			}
			fmt.Fprintf(&sb, "\n%-24s %10s %10s %10s %10s\n", "edge", "calls", "p50", "p99", "max")
			for _, es := range sums {
				fmt.Fprintf(&sb, "%-24s %10d %10s %10s %10s\n",
					d.name(cubicle.ID(es.Edge.From))+"→"+d.name(cubicle.ID(es.Edge.To)),
					es.Hist.Count,
					cycles.Duration(es.Hist.P50).String(),
					cycles.Duration(es.Hist.P99).String(),
					cycles.Duration(es.Hist.Max).String())
			}
		}
	}

	// Call-rate history from the metrics ring, as a sparkline.
	if samples := d.m.MetricsSamples(); len(samples) > 0 {
		rates := make([]float64, len(samples))
		for i, s := range samples {
			rates[i] = s.CallRate
		}
		strip, peak := sparkline(rates, sparkWidth)
		fmt.Fprintf(&sb, "\ncall rate %s  peak %.0f/s over %d samples", strip, peak, len(samples))
		if last, ok := d.m.LastMetricsSample(); ok && last.CallP99 > 0 {
			fmt.Fprintf(&sb, "   xing p50 %s p99 %s",
				cycles.Duration(last.CallP50), cycles.Duration(last.CallP99))
		}
		sb.WriteByte('\n')
	}

	io.WriteString(d.w, sb.String())
	d.prev = cur
}
