package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"cubicleos/internal/boot"
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
	// Layouts are CubicleOS's layouts by compartment count: Figure 8's
	// seven isolated cubicles, and Figure 9's 3 and 4.
	Layouts = map[int]map[string]string{7: nil, 3: Groups3, 4: Groups4}
)

// --- Deployments and their runs ---------------------------------------------

// Deployment is one speedtest1 run of §6.4–6.5: a system, its layout and
// the workload's scale.
type Deployment struct {
	System       string       // "CubicleOS", the Name of one of ukernel.Models, or "Linux"
	Mode         cubicle.Mode // CubicleOS's isolation; the others run unisolated (ModeUnikraft)
	Compartments int          // a key of Layouts on CubicleOS, 3 or 4 on a ukernel model
	Size         int
}

// Record is what a deployment's run leaves: the per-query measurements
// in QueryIDs order and, on CubicleOS, the call graph at the end of the
// run, boot included.
type Record struct {
	Queries []speedtest.Measurement
	Graph   *CallGraph
}

// Runs holds the record of each deployment run so far, for every figure
// that reads it.
type Runs map[Deployment]*Record

// Run returns the record of d, running d the first time it is asked for;
// the record is incomplete when the error is not nil.
func (r Runs) Run(d Deployment) (*Record, error) {
	if rec, ok := r[d]; ok {
		return rec, nil
	}
	rec, err := run(d)
	if err == nil {
		r[d] = rec
	}
	return rec, err
}

// run boots d and runs speedtest1 on it. A message-passing kernel or Linux
// runs the schedule through its IPC- or syscall-wrapped VFS client inside
// the application compartment.
func run(d Deployment) (*Record, error) {
	if d.System == "CubicleOS" {
		t, err := NewSQLiteTarget(d.Mode, Layouts[d.Compartments], d.Size, UnikraftWorkScale)
		if err != nil {
			return nil, err
		}
		ms, err := t.RunAll()
		return &Record{Queries: ms, Graph: graphFrom(t.Sys.M)}, err
	}
	var sys *boot.System
	var vfs *vfscore.Client
	app := component("SQLITE", "sqlite_main")
	if i := slices.IndexFunc(ukernel.Models, func(m ukernel.KernelModel) bool { return m.Name == d.System }); i >= 0 {
		k, err := ukernel.NewSQLite(ukernel.Models[i], d.Compartments, app)
		if err != nil {
			return nil, err
		}
		sys, vfs = k.Sys, k.VFS
	} else {
		l, err := ukernel.NewLinuxSQLite(app)
		if err != nil {
			return nil, err
		}
		sys, vfs = l.Sys, l.VFS
	}
	rec := &Record{}
	var runErr error
	err := sys.RunAs("SQLITE", func(e *cubicle.Env) {
		ioBuf, _ := openIO(e, vfs)
		db, err := sqldb.Open(e, vfs, "/speedtest.db", ioBuf, DBCacheCap)
		if err != nil {
			runErr = err
			return
		}
		rec.Queries, runErr = speedtest.New(db, speedtest.Config{Size: d.Size}).RunAll(e.M.Clock.Cycles)
	})
	return rec, cmp.Or(err, runErr)
}

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

// Fig6 reads speedtest1 under each configuration of the ladder (all on the
// 7-cubicle Figure 8 deployment), reporting per-query cycles.
func (r Runs) Fig6(size int) ([]Fig6Row, error) {
	rows := make([]Fig6Row, len(speedtest.QueryIDs))
	for rung, mode := range []cubicle.Mode{cubicle.ModeUnikraft, cubicle.ModeTrampoline, cubicle.ModeNoACL, cubicle.ModeFull} {
		rec, err := r.Run(Deployment{"CubicleOS", mode, 7, size})
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		for i, m := range rec.Queries {
			rows[i].ID, rows[i].GroupA, rows[i].Cycles[rung] = m.ID, m.GroupA, m.Cycles
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

// Fig8 is the SQLite cubicle graph including boot-time calls ("call
// counts include boot time"): the graph of Figure 6's full-isolation run.
func (r Runs) Fig8(size int) (*CallGraph, error) {
	rec, err := r.Run(Deployment{"CubicleOS", cubicle.ModeFull, 7, size})
	if err != nil {
		return nil, err
	}
	return rec.Graph, nil
}

// --- Figures 9 and 10: partitioning comparison ---------------------------------

// Fig10Row is one row of Figure 10: a system's mean speedtest1 slowdown
// against Linux (10a), or a kernel's of 4 compartments against 3 (10b).
type Fig10Row struct {
	Name     string
	Slowdown float64
}

// comparison is a Figure 10 row to measure: the run of d against that of base.
type comparison struct {
	name    string
	d, base Deployment
}

// slowdowns measures each row as the mean per-query slowdown of its two
// runs — the paper's "average slowdown factor across all speedtest1
// queries".
func (r Runs) slowdowns(rows []comparison) ([]Fig10Row, error) {
	out := make([]Fig10Row, len(rows))
	for i, row := range rows {
		base, err := r.Run(row.base)
		if err != nil {
			return nil, err
		}
		rec, err := r.Run(row.d)
		if err != nil {
			return nil, err
		}
		var sum float64
		for q, b := range base.Queries {
			sum += float64(rec.Queries[q].Cycles) / float64(b.Cycles)
		}
		out[i] = Fig10Row{Name: row.name, Slowdown: sum / float64(len(base.Queries))}
	}
	return out, nil
}

// Fig10a compares Linux, Unikraft, Genode-3/4 (on Linux) and
// CubicleOS-3/4 — the left plot of Figure 10.
func (r Runs) Fig10a(size int) ([]Fig10Row, error) {
	linux, genode := Deployment{"Linux", cubicle.ModeUnikraft, 0, size}, ukernel.GenodeLinux.Name
	return r.slowdowns([]comparison{
		{"Linux", linux, linux},
		{"Unikraft", Deployment{"CubicleOS", cubicle.ModeUnikraft, 3, size}, linux},
		{"Genode-3", Deployment{genode, cubicle.ModeUnikraft, 3, size}, linux},
		{"Genode-4", Deployment{genode, cubicle.ModeUnikraft, 4, size}, linux},
		{"CubicleOS-3", Deployment{"CubicleOS", cubicle.ModeFull, 3, size}, linux},
		{"CubicleOS-4", Deployment{"CubicleOS", cubicle.ModeFull, 4, size}, linux},
	})
}

// Fig10b measures the cost of separating RAMFS into its own compartment
// on each kernel (right plot of Figure 10); the baseline is the same
// kernel with 3 compartments.
func (r Runs) Fig10b(size int) ([]Fig10Row, error) {
	var rows []comparison
	for _, m := range ukernel.Models {
		rows = append(rows, comparison{m.Name, Deployment{m.Name, cubicle.ModeUnikraft, 4, size}, Deployment{m.Name, cubicle.ModeUnikraft, 3, size}})
	}
	return r.slowdowns(append(rows, comparison{"CubicleOS",
		Deployment{"CubicleOS", cubicle.ModeFull, 4, size}, Deployment{"CubicleOS", cubicle.ModeFull, 3, size}}))
}
