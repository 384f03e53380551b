package experiments

import (
	"fmt"
	"strings"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
	"cubicleos/internal/ukernel"
	"cubicleos/internal/vfscore"
)

// Figure 9 compartment configurations. In the partitioning comparison the
// virtual-file-system module is "a module that combines the PLAT, VFSCORE,
// ALLOC, and BOOT cubicles" (§6.5): CubicleOS-3 additionally builds the
// RAMFS driver into it (Figure 9a); CubicleOS-4 separates RAMFS
// (Figure 9b). TIMER and SQLITE stay separate in both. speedtest1
// -compartments 3|4 boots these.
var (
	Groups3 = map[string]string{vfscore.Name: "CORE", "RAMFS": "CORE",
		"PLAT": "CORE", "ALLOC": "CORE", "BOOT": "CORE"}
	Groups4 = map[string]string{vfscore.Name: "CORE",
		"PLAT": "CORE", "ALLOC": "CORE", "BOOT": "CORE"}
)

// --- Figure 6: SQLite query times under the ablation ladder ------------------

// Fig6Row is one query's execution time under the four configurations of
// Figure 6.
type Fig6Row struct {
	ID     int
	GroupA bool
	// Cycles per configuration.
	Unikraft, NoMPK, NoACL, Full uint64
}

// Ratio returns Full/Unikraft.
func (r Fig6Row) Ratio() float64 { return float64(r.Full) / float64(r.Unikraft) }

// Fig6 runs speedtest1 under baseline Unikraft, CubicleOS without MPK,
// CubicleOS without ACLs, and full CubicleOS (all on the 7-cubicle
// Figure 8 deployment), reporting per-query cycles.
func Fig6(size int) ([]Fig6Row, error) {
	rows := make(map[int]*Fig6Row)
	for _, id := range speedtest.QueryIDs {
		rows[id] = &Fig6Row{ID: id, GroupA: speedtest.InGroupA(id)}
	}
	for _, cfg := range []struct {
		mode cubicle.Mode
		set  func(r *Fig6Row, c uint64)
	}{
		{cubicle.ModeUnikraft, func(r *Fig6Row, c uint64) { r.Unikraft = c }},
		{cubicle.ModeTrampoline, func(r *Fig6Row, c uint64) { r.NoMPK = c }},
		{cubicle.ModeNoACL, func(r *Fig6Row, c uint64) { r.NoACL = c }},
		{cubicle.ModeFull, func(r *Fig6Row, c uint64) { r.Full = c }},
	} {
		t, err := NewSQLiteTarget(cfg.mode, nil, size, UnikraftWorkScale)
		if err != nil {
			return nil, err
		}
		ms, err := t.RunAll()
		if err != nil {
			return nil, fmt.Errorf("%v: %w", cfg.mode, err)
		}
		for _, m := range ms {
			cfg.set(rows[m.ID], m.Cycles)
		}
	}
	out := make([]Fig6Row, 0, len(rows))
	for _, id := range speedtest.QueryIDs {
		out = append(out, *rows[id])
	}
	return out, nil
}

// Fig6Summary aggregates Figure 6 into the paper's two query groups.
type Fig6Summary struct {
	// Mean Full/Unikraft slowdown per group.
	GroupASlowdown, GroupBSlowdown float64
	// Mean incremental overheads for group A (trampolines, +MPK, +ACLs),
	// as fractions of the previous rung.
	ATramp, AMPK, AACL float64
	BTramp, BMPK, BACL float64
}

// Summarise computes the group means the paper quotes in §6.4.
func Summarise(rows []Fig6Row) Fig6Summary {
	var s Fig6Summary
	var na, nb int
	for _, r := range rows {
		tramp := float64(r.NoMPK) / float64(r.Unikraft)
		mpk := float64(r.NoACL) / float64(r.NoMPK)
		acl := float64(r.Full) / float64(r.NoACL)
		if r.GroupA {
			s.GroupASlowdown += r.Ratio()
			s.ATramp += tramp
			s.AMPK += mpk
			s.AACL += acl
			na++
		} else {
			s.GroupBSlowdown += r.Ratio()
			s.BTramp += tramp
			s.BMPK += mpk
			s.BACL += acl
			nb++
		}
	}
	s.GroupASlowdown /= float64(na)
	s.ATramp /= float64(na)
	s.AMPK /= float64(na)
	s.AACL /= float64(na)
	s.GroupBSlowdown /= float64(nb)
	s.BTramp /= float64(nb)
	s.BMPK /= float64(nb)
	s.BACL /= float64(nb)
	return s
}

// --- Figure 7: NGINX download latency vs transfer size ------------------------

// Fig7Sizes is the x-axis of Figure 7.
var Fig7Sizes = []int{1 << 10, 2 << 10, 8 << 10, 32 << 10, 64 << 10, 128 << 10,
	512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}

// Fig7Row is one transfer size's latency under baseline Unikraft and
// full CubicleOS.
type Fig7Row struct {
	Size            int
	BaselineMs      float64
	CubicleOSMs     float64
	BaselineCycles  uint64
	CubicleOSCycles uint64
}

// Ratio returns the CubicleOS/baseline latency ratio.
func (r Fig7Row) Ratio() float64 { return r.CubicleOSMs / r.BaselineMs }

// Fig7 measures download latency for each file size on the 8-cubicle
// NGINX deployment (Figure 5), baseline vs CubicleOS.
func Fig7() ([]Fig7Row, error) {
	run := func(mode cubicle.Mode) (map[int]*siege.Result, error) {
		tgt, err := siege.NewTarget(mode)
		if err != nil {
			return nil, err
		}
		out := make(map[int]*siege.Result)
		for _, size := range Fig7Sizes {
			name := fmt.Sprintf("/file-%d.bin", size)
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 31)
			}
			if err := tgt.PutFile(name, data); err != nil {
				return nil, err
			}
			// Warm request, then the measured one (the paper measures
			// steady-state siege latencies).
			if _, err := tgt.Fetch(name); err != nil {
				return nil, err
			}
			res, err := tgt.Fetch(name)
			if err != nil {
				return nil, err
			}
			if res.Status != 200 || len(res.Body) != size {
				return nil, fmt.Errorf("size %d: bad response (status %d, %d bytes)", size, res.Status, len(res.Body))
			}
			out[size] = res
		}
		return out, nil
	}
	base, err := run(cubicle.ModeUnikraft)
	if err != nil {
		return nil, err
	}
	full, err := run(cubicle.ModeFull)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, 0, len(Fig7Sizes))
	for _, size := range Fig7Sizes {
		rows = append(rows, Fig7Row{
			Size:            size,
			BaselineMs:      float64(base[size].Latency.Microseconds()) / 1000,
			CubicleOSMs:     float64(full[size].Latency.Microseconds()) / 1000,
			BaselineCycles:  base[size].Cycles,
			CubicleOSCycles: full[size].Cycles,
		})
	}
	return rows, nil
}

// --- Figures 5 and 8: cubicle call graphs --------------------------------------

// CallEdge is one directed edge of a call-count graph.
type CallEdge struct {
	From, To string
	Count    uint64
}

// CallGraph is the call-count graph of a run.
type CallGraph struct {
	Edges []CallEdge
}

// graphFrom converts monitor stats into a named call graph.
func graphFrom(m *cubicle.Monitor) *CallGraph {
	names := make(map[cubicle.ID]string)
	for _, c := range m.Cubicles() {
		names[c.ID] = c.Name
	}
	g := &CallGraph{}
	for _, ec := range m.Stats.SortedEdges() {
		from := names[ec.From]
		if ec.From == cubicle.MonitorID {
			from = "ENTRY"
		}
		g.Edges = append(g.Edges, CallEdge{From: from, To: names[ec.To], Count: ec.Count})
	}
	return g
}

// Count returns the count on edge from→to (0 if absent).
func (g *CallGraph) Count(from, to string) uint64 {
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			return e.Count
		}
	}
	return 0
}

// String renders the graph as a table.
func (g *CallGraph) String() string {
	var sb strings.Builder
	for _, e := range g.Edges {
		fmt.Fprintf(&sb, "%-10s -> %-10s %10d\n", e.From, e.To, e.Count)
	}
	return sb.String()
}

// Fig5 reproduces the NGINX cubicle graph: it serves a siege workload of
// random static files and reports the cross-cubicle call counts during
// the measurement window.
func Fig5(requests int) (*CallGraph, error) {
	tgt, err := siege.NewTarget(cubicle.ModeFull)
	if err != nil {
		return nil, err
	}
	files := []string{"/a.html", "/b.css", "/c.js", "/d.png"}
	sizes := []int{2 << 10, 8 << 10, 32 << 10, 128 << 10}
	for i, f := range files {
		data := make([]byte, sizes[i])
		if err := tgt.PutFile(f, data); err != nil {
			return nil, err
		}
	}
	// Measurement window starts after provisioning, as in the paper
	// ("call counts obtained during benchmark measurement time").
	tgt.Sys.M.Stats.Reset()
	for i := 0; i < requests; i++ {
		if _, err := tgt.Fetch(files[i%len(files)]); err != nil {
			return nil, err
		}
	}
	return graphFrom(tgt.Sys.M), nil
}

// Fig8 reproduces the SQLite cubicle graph including boot-time calls
// ("call counts include boot time").
func Fig8(size int) (*CallGraph, error) {
	t, err := NewSQLiteTarget(cubicle.ModeFull, nil, size, UnikraftWorkScale)
	if err != nil {
		return nil, err
	}
	if _, err := t.RunAll(); err != nil {
		return nil, err
	}
	return graphFrom(t.Sys.M), nil
}

// --- Figures 9 and 10: partitioning comparison ---------------------------------

// perQuery maps measurements by query ID.
func perQuery(ms []speedtest.Measurement) map[int]uint64 {
	out := make(map[int]uint64, len(ms))
	for _, m := range ms {
		out[m.ID] = m.Cycles
	}
	return out
}

// meanSlowdown is the average per-query slowdown of cfg against base —
// the paper's "average slowdown factor across all speedtest1 queries".
func meanSlowdown(cfg, base map[int]uint64) float64 {
	var sum float64
	var n int
	for id, b := range base {
		if c, ok := cfg[id]; ok && b > 0 {
			sum += float64(c) / float64(b)
			n++
		}
	}
	return sum / float64(n)
}

// ukernelRun boots a message-passing deployment and runs speedtest1.
func ukernelRun(model ukernel.KernelModel, components, size int) (map[int]uint64, error) {
	app := sqliteComponent()
	d, err := ukernel.NewSQLite(model, components, app)
	if err != nil {
		return nil, err
	}
	return hostedSpeedtest(d.Sys, d.VFS, size)
}

// linuxRun runs speedtest1 on the Linux baseline.
func linuxRun(size int) (map[int]uint64, error) {
	app := sqliteComponent()
	d, err := ukernel.NewLinuxSQLite(app)
	if err != nil {
		return nil, err
	}
	return hostedSpeedtest(d.Sys, d.VFS, size)
}

// hostedSpeedtest opens the database through the provided (possibly
// IPC-wrapped) VFS client inside the app compartment and runs the whole
// schedule, returning per-query cycles.
func hostedSpeedtest(sys interface {
	RunAs(string, func(e *cubicle.Env)) error
}, vfs *vfscore.Client, size int) (map[int]uint64, error) {
	var ms []speedtest.Measurement
	var runErr error
	err := sys.RunAs("SQLITE", func(e *cubicle.Env) {
		vfs.InitBuffers(e, e.CubicleOf("RAMFS"))
		ioBuf := e.HeapAlloc(sqldb.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, ioBuf, sqldb.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf("RAMFS"))
		db, err := sqldb.Open(e, vfs, "/speedtest.db", ioBuf, DBCacheCap)
		if err != nil {
			runErr = err
			return
		}
		r := speedtest.New(db, speedtest.Config{Size: size})
		clock := e.M.Clock
		ms, runErr = r.RunAll(clock.Cycles)
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return perQuery(ms), nil
}

// cubicleRun runs speedtest1 on a CubicleOS deployment with the given
// grouping and mode.
func cubicleRun(mode cubicle.Mode, groups map[string]string, size int) (map[int]uint64, error) {
	t, err := NewSQLiteTarget(mode, groups, size, UnikraftWorkScale)
	if err != nil {
		return nil, err
	}
	ms, err := t.RunAll()
	if err != nil {
		return nil, err
	}
	return perQuery(ms), nil
}

// Fig10aRow is one system's average speedtest1 slowdown against Linux.
type Fig10aRow struct {
	System   string
	Slowdown float64
}

// Fig10a compares Linux, Unikraft, Genode-3/4 (on Linux) and
// CubicleOS-3/4 — the left plot of Figure 10.
func Fig10a(size int) ([]Fig10aRow, error) {
	linux, err := linuxRun(size)
	if err != nil {
		return nil, err
	}
	rows := []Fig10aRow{{System: "Linux", Slowdown: 1.0}}
	uk, err := cubicleRun(cubicle.ModeUnikraft, Groups3, size)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig10aRow{System: "Unikraft", Slowdown: meanSlowdown(uk, linux)})
	for _, comp := range []int{3, 4} {
		g, err := ukernelRun(ukernel.GenodeLinux, comp, size)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10aRow{System: fmt.Sprintf("Genode-%d", comp), Slowdown: meanSlowdown(g, linux)})
	}
	c3, err := cubicleRun(cubicle.ModeFull, Groups3, size)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig10aRow{System: "CubicleOS-3", Slowdown: meanSlowdown(c3, linux)})
	c4, err := cubicleRun(cubicle.ModeFull, Groups4, size)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig10aRow{System: "CubicleOS-4", Slowdown: meanSlowdown(c4, linux)})
	return rows, nil
}

// Fig10bRow is one kernel's 4-vs-3-compartment slowdown.
type Fig10bRow struct {
	Kernel   string
	Slowdown float64
}

// Fig10b measures the cost of separating RAMFS into its own compartment
// on each kernel (right plot of Figure 10); the baseline is the same
// kernel with 3 compartments.
func Fig10b(size int) ([]Fig10bRow, error) {
	var rows []Fig10bRow
	for _, model := range ukernel.Models {
		t3, err := ukernelRun(model, 3, size)
		if err != nil {
			return nil, err
		}
		t4, err := ukernelRun(model, 4, size)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10bRow{Kernel: model.Name, Slowdown: meanSlowdown(t4, t3)})
	}
	c3, err := cubicleRun(cubicle.ModeFull, Groups3, size)
	if err != nil {
		return nil, err
	}
	c4, err := cubicleRun(cubicle.ModeFull, Groups4, size)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig10bRow{Kernel: "CubicleOS", Slowdown: meanSlowdown(c4, c3)})
	return rows, nil
}
