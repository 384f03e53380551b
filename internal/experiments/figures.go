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
	// Cycles per configuration, up the ablation ladder: Unikraft,
	// CubicleOS without MPK, without ACLs, and full CubicleOS.
	Cycles [4]uint64
}

// Ratio returns full CubicleOS's cycles over Unikraft's.
func (r Fig6Row) Ratio() float64 { return float64(r.Cycles[3]) / float64(r.Cycles[0]) }

// Fig6 runs speedtest1 under each configuration of the ladder (all on the
// 7-cubicle Figure 8 deployment), reporting per-query cycles.
func Fig6(size int) ([]Fig6Row, error) {
	rows := make([]Fig6Row, len(speedtest.QueryIDs))
	for i, id := range speedtest.QueryIDs {
		rows[i] = Fig6Row{ID: id, GroupA: speedtest.InGroupA(id)}
	}
	for rung, mode := range []cubicle.Mode{cubicle.ModeUnikraft, cubicle.ModeTrampoline, cubicle.ModeNoACL, cubicle.ModeFull} {
		t, err := NewSQLiteTarget(mode, nil, size, UnikraftWorkScale)
		if err != nil {
			return nil, err
		}
		ms, err := t.RunAll() // in QueryIDs order
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		for i, m := range ms {
			rows[i].Cycles[rung] = m.Cycles
		}
	}
	return rows, nil
}

// --- Figure 7: NGINX download latency vs transfer size ------------------------

// Fig7Sizes is the x-axis of Figure 7.
var Fig7Sizes = []int{1 << 10, 2 << 10, 8 << 10, 32 << 10, 64 << 10, 128 << 10,
	512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}

// Fig7Row is one transfer size's latency under baseline Unikraft and
// full CubicleOS.
type Fig7Row struct {
	Size        int
	BaselineMs  float64
	CubicleOSMs float64
}

// Ratio returns the CubicleOS/baseline latency ratio.
func (r Fig7Row) Ratio() float64 { return r.CubicleOSMs / r.BaselineMs }

// Fig7 measures download latency for each file size on the 8-cubicle
// NGINX deployment (Figure 5), baseline vs CubicleOS: one row per size of
// Fig7Sizes, in its order.
func Fig7() ([]Fig7Row, error) {
	rows := make([]Fig7Row, len(Fig7Sizes))
	for _, mode := range []cubicle.Mode{cubicle.ModeUnikraft, cubicle.ModeFull} {
		tgt, err := siege.NewTarget(mode)
		if err != nil {
			return nil, err
		}
		for i, size := range Fig7Sizes {
			name := fmt.Sprintf("/file-%d.bin", size)
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(j * 31)
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
			ms := float64(res.Latency.Microseconds()) / 1000
			rows[i].Size = size
			if mode == cubicle.ModeUnikraft {
				rows[i].BaselineMs = ms
			} else {
				rows[i].CubicleOSMs = ms
			}
		}
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

// meanSlowdown is the mean per-query slowdown of cfg against base, two
// runs of one schedule — the paper's "average slowdown factor across all
// speedtest1 queries".
func meanSlowdown(cfg, base []speedtest.Measurement) float64 {
	var sum float64
	for i, b := range base {
		sum += float64(cfg[i].Cycles) / float64(b.Cycles)
	}
	return sum / float64(len(base))
}

// ukernelRun boots a message-passing deployment and runs speedtest1.
func ukernelRun(model ukernel.KernelModel, components, size int) ([]speedtest.Measurement, error) {
	d, err := ukernel.NewSQLite(model, components, sqliteComponent())
	if err != nil {
		return nil, err
	}
	return hostedSpeedtest(d.Sys, d.VFS, size)
}

// linuxRun runs speedtest1 on the Linux baseline.
func linuxRun(size int) ([]speedtest.Measurement, error) {
	d, err := ukernel.NewLinuxSQLite(sqliteComponent())
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
}, vfs *vfscore.Client, size int) ([]speedtest.Measurement, error) {
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
		ms, runErr = r.RunAll(e.M.Clock.Cycles)
	})
	if err != nil {
		return nil, err
	}
	return ms, runErr
}

// cubicleRun runs speedtest1 on a CubicleOS deployment with the given
// grouping and mode.
func cubicleRun(mode cubicle.Mode, groups map[string]string, size int) ([]speedtest.Measurement, error) {
	t, err := NewSQLiteTarget(mode, groups, size, UnikraftWorkScale)
	if err != nil {
		return nil, err
	}
	return t.RunAll()
}

// Fig10Row is one row of Figure 10: a system's mean speedtest1 slowdown
// against Linux (10a), or a kernel's of 4 compartments against 3 (10b).
type Fig10Row struct {
	Name     string
	Slowdown float64
}

// Fig10Runs draws Figure 10 at one scale. Both plots read the speedtest1
// runs of the Genode/Linux and CubicleOS deployments of 3 and 4
// compartments, which it makes the first time a plot reads one and keeps:
// drawing the two takes 12 runs where drawing them apart takes 16.
type Fig10Runs struct {
	size int
	runs map[string][]speedtest.Measurement
}

// NewFig10Runs returns Figure 10 at speedtest1 scale size, nothing run yet.
func NewFig10Runs(size int) *Fig10Runs {
	return &Fig10Runs{size: size, runs: make(map[string][]speedtest.Measurement)}
}

// run returns the measurements of the deployment key names, running it
// with fn the first time.
func (f *Fig10Runs) run(key string, fn func() ([]speedtest.Measurement, error)) ([]speedtest.Measurement, error) {
	if ms, ok := f.runs[key]; ok {
		return ms, nil
	}
	ms, err := fn()
	if err == nil {
		f.runs[key] = ms
	}
	return ms, err
}

// kernel returns the run of a microkernel model with n compartments.
func (f *Fig10Runs) kernel(model ukernel.KernelModel, n int) ([]speedtest.Measurement, error) {
	return f.run(fmt.Sprintf("%s-%d", model.Name, n), func() ([]speedtest.Measurement, error) { return ukernelRun(model, n, f.size) })
}

// cubicleOS returns the run of CubicleOS with 3 or 4 compartments.
func (f *Fig10Runs) cubicleOS(n int) ([]speedtest.Measurement, error) {
	groups := Groups3
	if n == 4 {
		groups = Groups4
	}
	return f.run(fmt.Sprintf("CubicleOS-%d", n), func() ([]speedtest.Measurement, error) { return cubicleRun(cubicle.ModeFull, groups, f.size) })
}

// Fig10a compares Linux, Unikraft, Genode-3/4 (on Linux) and
// CubicleOS-3/4 — the left plot of Figure 10.
func (f *Fig10Runs) Fig10a() ([]Fig10Row, error) {
	linux, err := linuxRun(f.size)
	if err != nil {
		return nil, err
	}
	rows := []Fig10Row{{Name: "Linux", Slowdown: 1.0}}
	for _, sys := range []struct {
		name string
		run  func() ([]speedtest.Measurement, error)
	}{
		{"Unikraft", func() ([]speedtest.Measurement, error) { return cubicleRun(cubicle.ModeUnikraft, Groups3, f.size) }},
		{"Genode-3", func() ([]speedtest.Measurement, error) { return f.kernel(ukernel.GenodeLinux, 3) }},
		{"Genode-4", func() ([]speedtest.Measurement, error) { return f.kernel(ukernel.GenodeLinux, 4) }},
		{"CubicleOS-3", func() ([]speedtest.Measurement, error) { return f.cubicleOS(3) }},
		{"CubicleOS-4", func() ([]speedtest.Measurement, error) { return f.cubicleOS(4) }},
	} {
		ms, err := sys.run()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{Name: sys.name, Slowdown: meanSlowdown(ms, linux)})
	}
	return rows, nil
}

// Fig10b measures the cost of separating RAMFS into its own compartment
// on each kernel (right plot of Figure 10); the baseline is the same
// kernel with 3 compartments.
func (f *Fig10Runs) Fig10b() ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, model := range ukernel.Models {
		t3, err := f.kernel(model, 3)
		if err != nil {
			return nil, err
		}
		t4, err := f.kernel(model, 4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{Name: model.Name, Slowdown: meanSlowdown(t4, t3)})
	}
	c3, err := f.cubicleOS(3)
	if err != nil {
		return nil, err
	}
	c4, err := f.cubicleOS(4)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig10Row{Name: "CubicleOS", Slowdown: meanSlowdown(c4, c3)})
	return rows, nil
}
