// Command cubicle-inspect boots a deployment and dumps its isolation
// state: cubicles with their MPK keys and exports, the page map by owner
// and type, installed trampolines, and (after a short workload) the
// window tables and event counters — the view a CubicleOS operator gets
// of a running system. With -json the same report is emitted as
// machine-readable JSON for scripting.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"cubicleos"
	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
	"cubicleos/internal/vm"
)

// report is the machine-readable form of the dump.
type report struct {
	Mode     string         `json:"mode"`
	Cubicles []cubicleInfo  `json:"cubicles"`
	PageMap  []pageMapEntry `json:"page_map"`
	Tramps   []string       `json:"trampolines"`
	// Counters holds every row of cubicle.Counters under the row's name.
	Counters      map[string]uint64 `json:"counters"`
	Edges         []edgeCount       `json:"call_edges"`
	VirtualCycles uint64            `json:"virtual_cycles"`
	VirtualMs     float64           `json:"virtual_ms"`
	// TraceRing, when the run is traced, is the ring's recorded/dropped
	// accounting — the drop counter shows whether the ring capacity kept
	// up with the event rate.
	TraceRing *ringInfo `json:"trace_ring,omitempty"`
	// Metrics, when the virtual-time metrics pipeline is enabled, carries
	// its configuration and the buffered interval snapshots.
	Metrics *metricsInfo `json:"metrics,omitempty"`
}

type ringInfo struct {
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
}

type metricsInfo struct {
	IntervalCycles uint64                  `json:"interval_cycles"`
	Recorded       uint64                  `json:"snapshots_recorded"`
	Dropped        uint64                  `json:"snapshots_dropped"`
	Samples        []cubicle.MetricsSample `json:"samples"`
}

type cubicleInfo struct {
	ID         int      `json:"id"`
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Key        int      `json:"key"`
	Windows    int      `json:"windows"`
	Health     string   `json:"health"`
	Restarts   uint64   `json:"restarts"`
	LastFault  string   `json:"last_fault,omitempty"`
	Components []string `json:"components,omitempty"`
	Exports    []string `json:"exports,omitempty"`
	// Checkpoint, when the cubicle has a last good checkpoint, reports
	// when it was captured and how big it is — the warm-recovery state an
	// operator has to reason about.
	Checkpoint *checkpointInfo `json:"checkpoint,omitempty"`
}

type checkpointInfo struct {
	Cycle uint64 `json:"cycle"`
	Bytes uint64 `json:"bytes"`
	Pages uint64 `json:"pages"`
}

type pageMapEntry struct {
	Owner     int    `json:"owner"`
	OwnerName string `json:"owner_name"`
	Type      string `json:"type"`
	Pages     int    `json:"pages"`
	KiB       int    `json:"kib"`
}

type edgeCount struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Count uint64 `json:"count"`
}

func buildReport(m *cubicleos.Monitor) *report {
	r := &report{Mode: m.Mode.String()}
	names := map[int]string{int(cubicle.MonitorID): "MONITOR"}
	for _, c := range m.Cubicles() {
		names[int(c.ID)] = c.Name
		exports := c.Exports()
		slices.Sort(exports)
		ci := cubicleInfo{
			ID: int(c.ID), Name: c.Name, Kind: c.Kind.String(), Key: int(c.Key),
			Windows: m.WindowCount(c.ID), Health: c.Health().String(),
			Restarts: c.Restarts(), Components: c.Components(), Exports: exports,
		}
		if lf := c.LastFault(); lf != nil {
			ci.LastFault = lf.Error()
		}
		if info, ok := m.LastCheckpoint(c.ID); ok {
			ci.Checkpoint = &checkpointInfo{Cycle: info.Cycle, Bytes: info.Bytes, Pages: info.Pages}
		}
		r.Cubicles = append(r.Cubicles, ci)
	}
	type key struct {
		owner int
		typ   vm.PageType
	}
	counts := map[key]int{}
	m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		counts[key{p.Owner, p.Type}]++
	})
	var keys []key
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.owner, b.owner), cmp.Compare(a.typ, b.typ))
	})
	for _, k := range keys {
		owner := names[k.owner]
		if owner == "" {
			owner = fmt.Sprintf("cubicle-%d", k.owner)
		}
		r.PageMap = append(r.PageMap, pageMapEntry{
			Owner: k.owner, OwnerName: owner, Type: k.typ.String(),
			Pages: counts[k], KiB: counts[k] * vm.PageSize / 1024,
		})
	}
	for _, tr := range m.Trampolines() {
		r.Tramps = append(r.Tramps, tr.Symbol())
	}
	slices.Sort(r.Tramps)
	r.Counters = cubicle.CounterValues(&m.Stats)
	for _, e := range m.Stats.SortedEdges() {
		r.Edges = append(r.Edges, edgeCount{From: int(e.From), To: int(e.To), Count: e.Count})
	}
	r.VirtualCycles = m.Clock.Cycles()
	r.VirtualMs = float64(m.Clock.Duration().Microseconds()) / 1000
	if trc := m.Tracer(); trc != nil {
		r.TraceRing = &ringInfo{Recorded: trc.Recorded(), Dropped: trc.Dropped()}
	}
	if m.MetricsEnabled() {
		r.Metrics = &metricsInfo{
			IntervalCycles: m.MetricsInterval(),
			Recorded:       m.MetricsRecorded(),
			Dropped:        m.MetricsDropped(),
			Samples:        m.MetricsSamples(),
		}
	}
	return r
}

// writeText renders the report as the human-readable dump.
func writeText(w io.Writer, r *report) {
	fmt.Fprintln(w, "CUBICLES")
	fmt.Fprintf(w, "%-4s %-10s %-9s %-4s %-8s %-11s %-8s %s\n",
		"id", "name", "kind", "key", "windows", "health", "restarts", "exports")
	for _, c := range r.Cubicles {
		show := c.Exports
		if len(show) > 4 {
			show = append(append([]string{}, show[:4]...), fmt.Sprintf("… (%d total)", len(c.Exports)))
		}
		fmt.Fprintf(w, "%-4d %-10s %-9s %-4d %-8d %-11s %-8d %v\n", c.ID, c.Name, c.Kind, c.Key,
			c.Windows, c.Health, c.Restarts, show)
		if c.LastFault != "" {
			fmt.Fprintf(w, "     last fault: %s\n", c.LastFault)
		}
		if cp := c.Checkpoint; cp != nil {
			fmt.Fprintf(w, "     last checkpoint: cycle %d, %d bytes, %d heap pages\n",
				cp.Cycle, cp.Bytes, cp.Pages)
		}
	}

	fmt.Fprintln(w, "\nPAGE MAP (pages by owner and type)")
	for _, e := range r.PageMap {
		fmt.Fprintf(w, "  %-10s %-7s %6d pages (%d KiB)\n", e.OwnerName, e.Type, e.Pages, e.KiB)
	}

	fmt.Fprintln(w, "\nTRAMPOLINES")
	fmt.Fprintf(w, "  %d cross-cubicle call trampolines installed (one per public symbol)\n", len(r.Tramps))
	for i, sym := range r.Tramps {
		if i >= 8 {
			fmt.Fprintf(w, "  … and %d more\n", len(r.Tramps)-8)
			break
		}
		fmt.Fprintf(w, "  %s\n", sym)
	}

	fmt.Fprintln(w, "\nEVENT COUNTERS")
	for _, c := range cubicle.Counters {
		fmt.Fprintf(w, "  %-20s %10d  %s\n", c.Name, r.Counters[c.Name], c.Help)
	}
	fmt.Fprintf(w, "  %-20s %10d cycles (%.3f ms at 2.2 GHz)\n", "virtual time", r.VirtualCycles, r.VirtualMs)

	if tr := r.TraceRing; tr != nil {
		fmt.Fprintln(w, "\nTRACE RING")
		fmt.Fprintf(w, "  %d events recorded, %d dropped, %d retained in ring\n",
			tr.Recorded, tr.Dropped, tr.Recorded-tr.Dropped)
	}
	if mi := r.Metrics; mi != nil {
		fmt.Fprintln(w, "\nMETRICS PIPELINE")
		fmt.Fprintf(w, "  interval %d cycles; %d snapshots recorded, %d dropped from ring\n",
			mi.IntervalCycles, mi.Recorded, mi.Dropped)
		if n := len(mi.Samples); n > 0 {
			s := mi.Samples[n-1]
			fmt.Fprintf(w, "  last sample: cycle %d  calls/s %.0f  faults/s %.0f  xing p99 %dcy\n",
				s.Cycle, s.CallRate, s.FaultRate, s.CallP99)
		}
	}
}

// clusterReport is the fleet dump (-cluster), in text and -json alike.
type clusterReport struct {
	Backends    int              `json:"backends"`
	Policy      string           `json:"policy"`
	Retries     uint64           `json:"retries"`
	Hedges      uint64           `json:"hedges"`
	HedgeWins   uint64           `json:"hedge_wins"`
	Failovers   uint64           `json:"failovers"`
	Drains      uint64           `json:"drains"`
	Readmits    uint64           `json:"readmits"`
	RouteFaults uint64           `json:"route_faults"`
	Fleet       []clusterBackend `json:"fleet"`
}

type clusterBackend struct {
	Index        int    `json:"index"`
	Health       string `json:"health"`
	Routed       uint64 `json:"routed"`
	OK           uint64 `json:"ok"`
	Shed         uint64 `json:"shed"`
	Errors       uint64 `json:"errors"`
	Dropped      uint64 `json:"dropped"`
	Drains       uint64 `json:"drains"`
	Readmits     uint64 `json:"readmits"`
	Routes       uint64 `json:"routes"`
	Failovers    uint64 `json:"failovers"`
	WarmRestarts uint64 `json:"warm_restarts"`
	ColdRestarts uint64 `json:"cold_restarts"`
	Quarantines  uint64 `json:"quarantines"`
}

// runCluster boots an N-backend virtual cluster, floods it while a
// scripted kill takes one backend through the drain → warm restart →
// re-admission ladder, and reports the balancer's view of the fleet.
func runCluster(n int) *clusterReport {
	c, err := cluster.New(cluster.Options{
		Backends:           n,
		Mode:               cubicleos.ModeFull,
		Seed:               7,
		CheckpointInterval: 5_000_000,
		HedgeAfter:         20_000_000,
		Script:             []cluster.Event{{AtCycle: 25_000_000, Backend: n / 2, Action: cluster.ActKill}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.PutFile("/probe.bin", make([]byte, 16<<10)); err != nil {
		log.Fatal(err)
	}
	st, err := c.RunOpenLoop(cluster.RunOptions{Path: "/probe.bin", Rate: 1500 * float64(n), Requests: 90 * n})
	if err != nil {
		log.Fatal(err)
	}
	rep := &clusterReport{
		Backends: n, Policy: cluster.RoutePolicy,
		Retries: st.Retries, Hedges: st.Hedges, HedgeWins: st.HedgeWins,
		Failovers: st.Failovers, Drains: st.Drains, Readmits: st.Readmits,
		RouteFaults: st.RouteFaults,
	}
	for _, pb := range st.PerBackend {
		rep.Fleet = append(rep.Fleet, clusterBackend{
			Index: pb.Index, Health: pb.Health,
			Routed: pb.Routed, OK: pb.OK, Shed: pb.Shed, Errors: pb.Errors, Dropped: pb.Dropped,
			Drains: pb.Drains, Readmits: pb.Readmits,
			Routes: pb.Sys.Routes, Failovers: pb.Sys.Failovers,
			WarmRestarts: pb.Sys.WarmRestarts, ColdRestarts: pb.Sys.ColdRestarts,
			Quarantines: pb.Sys.Quarantines,
		})
	}
	return rep
}

// writeClusterText renders the fleet report as the human-readable table.
func writeClusterText(w io.Writer, r *clusterReport) {
	fmt.Fprintf(w, "CLUSTER (%d backends, %s policy)\n", r.Backends, r.Policy)
	fmt.Fprintf(w, "%-4s %-9s %7s %6s %5s %5s %5s %7s %8s %5s %5s %6s\n",
		"idx", "health", "routed", "ok", "shed", "err", "drop", "drains", "readmits", "warm", "cold", "quar")
	for _, b := range r.Fleet {
		fmt.Fprintf(w, "%-4d %-9s %7d %6d %5d %5d %5d %7d %8d %5d %5d %6d\n",
			b.Index, b.Health, b.Routed, b.OK, b.Shed, b.Errors, b.Dropped,
			b.Drains, b.Readmits, b.WarmRestarts, b.ColdRestarts, b.Quarantines)
	}
	fmt.Fprintln(w, "\nBALANCER")
	fmt.Fprintf(w, "  retries     %6d\n", r.Retries)
	fmt.Fprintf(w, "  hedges      %6d (%d won)\n", r.Hedges, r.HedgeWins)
	fmt.Fprintf(w, "  failovers   %6d\n", r.Failovers)
	fmt.Fprintf(w, "  drains      %6d (%d re-admissions)\n", r.Drains, r.Readmits)
	fmt.Fprintf(w, "  route faults %5d\n", r.RouteFaults)
}

// emit writes r to stdout as indented JSON, or through writeText.
func emit[R any](asJSON bool, r R, writeText func(io.Writer, R)) {
	if !asJSON {
		writeText(os.Stdout, r)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(r); err != nil {
		log.Fatal(err)
	}
}

func main() {
	workload := flag.Bool("workload", true, "run a short HTTP workload before dumping")
	asJSON := flag.Bool("json", false, "emit the report as machine-readable JSON")
	ring := flag.Int("ring", 1<<14, "trace ring capacity in events (0 = tracing off)")
	metricsInterval := flag.Uint64("metrics-interval", 500_000, "metrics snapshot interval in virtual cycles (0 = metrics off)")
	checkpoint := flag.Uint64("checkpoint", 500_000, "checkpoint interval in virtual cycles (0 = checkpoints off)")
	clusterN := flag.Int("cluster", 0, "inspect an N-backend virtual cluster after a scripted failover instead of one system")
	flag.Parse()

	if *clusterN > 0 {
		emit(*asJSON, runCluster(*clusterN), writeClusterText)
		return
	}

	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode:               cubicleos.ModeFull,
		TraceEvents:        *ring,
		MetricsInterval:    *metricsInterval,
		CheckpointInterval: *checkpoint,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *workload {
		if err := tgt.PutFile("/probe.bin", make([]byte, 16<<10)); err != nil {
			log.Fatal(err)
		}
		// A few requests so the dump shows live window tables, edge counts
		// and at least a couple of metrics-interval snapshots.
		for i := 0; i < 4; i++ {
			if _, err := tgt.Fetch("/probe.bin"); err != nil {
				log.Fatal(err)
			}
		}
	}
	emit(*asJSON, buildReport(tgt.Sys.M), writeText)
}
