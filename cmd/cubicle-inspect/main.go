// Command cubicle-inspect boots a deployment and dumps its isolation
// state: cubicles with their MPK keys and exports, the page map by owner
// and type, installed trampolines, and (after a short workload) the
// window tables and event counters — the view a CubicleOS operator gets
// of a running system. With -json the same report is emitted as
// machine-readable JSON for scripting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

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
	Counters counters       `json:"counters"`
	// TraceShards, when the run is traced, reports each per-core ring
	// shard's recorded/dropped accounting — the drop counters show whether
	// the ring capacity kept up with the event rate.
	TraceShards []shardInfo `json:"trace_shards,omitempty"`
	// Metrics, when the virtual-time metrics pipeline is enabled, carries
	// its configuration and the buffered interval snapshots.
	Metrics *metricsInfo `json:"metrics,omitempty"`
}

type shardInfo struct {
	Core     int    `json:"core"`
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Retained int    `json:"retained"`
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

type counters struct {
	Calls             uint64      `json:"cross_cubicle_calls"`
	SharedCalls       uint64      `json:"shared_cubicle_calls"`
	Faults            uint64      `json:"protection_traps"`
	DeniedFaults      uint64      `json:"denied_traps"`
	Retags            uint64      `json:"page_retags"`
	WRPKRUs           uint64      `json:"wrpkru_executions"`
	WindowOps         uint64      `json:"window_operations"`
	WindowSearchSteps uint64      `json:"window_search_steps"`
	StackBytesCopied  uint64      `json:"stack_arg_bytes"`
	BulkBytesCopied   uint64      `json:"bulk_bytes_copied"`
	KeyEvictions      uint64      `json:"key_evictions"`
	ContainedFaults   uint64      `json:"contained_faults"`
	Quarantines       uint64      `json:"quarantines"`
	Restarts          uint64      `json:"restarts"`
	WarmRestarts      uint64      `json:"warm_restarts"`
	ColdRestarts      uint64      `json:"cold_restarts"`
	Checkpoints       uint64      `json:"checkpoints"`
	CheckpointBytes   uint64      `json:"checkpoint_bytes"`
	InjectedFaults    uint64      `json:"injected_faults"`
	Sheds             uint64      `json:"sheds"`
	DeadlineFaults    uint64      `json:"deadline_faults"`
	QuotaFaults       uint64      `json:"quota_faults"`
	Retries           uint64      `json:"retries"`
	TLBShootdowns     uint64      `json:"tlb_shootdowns"`
	Edges             []edgeCount `json:"call_edges"`
	VirtualCycles     uint64      `json:"virtual_cycles"`
	VirtualMs         float64     `json:"virtual_ms"`
}

func buildReport(m *cubicleos.Monitor) *report {
	r := &report{Mode: m.Mode.String()}
	names := map[int]string{int(cubicle.MonitorID): "MONITOR"}
	for _, c := range m.Cubicles() {
		names[int(c.ID)] = c.Name
		exports := c.Exports()
		sort.Strings(exports)
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
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		return keys[i].typ < keys[j].typ
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
	sort.Strings(r.Tramps)
	st := m.Stats
	r.Counters = counters{
		Calls:             st.CallsTotal,
		SharedCalls:       st.SharedCalls,
		Faults:            st.Faults,
		DeniedFaults:      st.DeniedFaults,
		Retags:            st.Retags,
		WRPKRUs:           st.WRPKRUs,
		WindowOps:         st.WindowOps,
		WindowSearchSteps: st.WindowSearchSteps,
		StackBytesCopied:  st.StackBytesCopied,
		BulkBytesCopied:   st.BulkBytesCopied,
		KeyEvictions:      st.KeyEvictions,
		ContainedFaults:   st.ContainedFaults,
		Quarantines:       st.Quarantines,
		Restarts:          st.Restarts,
		WarmRestarts:      st.WarmRestarts,
		ColdRestarts:      st.ColdRestarts,
		Checkpoints:       st.Checkpoints,
		CheckpointBytes:   st.CheckpointBytes,
		InjectedFaults:    st.InjectedFaults,
		Sheds:             st.Sheds,
		DeadlineFaults:    st.DeadlineFaults,
		QuotaFaults:       st.QuotaFaults,
		Retries:           st.Retries,
		TLBShootdowns:     st.TLBShootdowns,
		VirtualCycles:     m.Clock.Cycles(),
		VirtualMs:         float64(m.Clock.Duration().Microseconds()) / 1000,
	}
	for _, e := range st.SortedEdges() {
		r.Counters.Edges = append(r.Counters.Edges, edgeCount{
			From: int(e.From), To: int(e.To), Count: e.Count,
		})
	}
	if trc := m.Tracer(); trc != nil {
		for c := 0; c < trc.Cores(); c++ {
			r.TraceShards = append(r.TraceShards, shardInfo{
				Core:     c,
				Recorded: trc.ShardRecorded(c),
				Dropped:  trc.ShardDropped(c),
				Retained: len(trc.ShardEvents(c)),
			})
		}
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

// clusterReport is the machine-readable fleet dump (-cluster -json).
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

// inspectCluster boots an N-backend virtual cluster, floods it while a
// scripted kill takes one backend through the drain → warm restart →
// re-admission ladder, and dumps the balancer's view of the fleet.
func inspectCluster(n int, asJSON bool) {
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
	rep := clusterReport{
		Backends: n, Policy: c.O.Policy.String(),
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
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("CLUSTER (%d backends, %s policy)\n", n, rep.Policy)
	fmt.Printf("%-4s %-9s %7s %6s %5s %5s %5s %7s %8s %5s %5s %6s\n",
		"idx", "health", "routed", "ok", "shed", "err", "drop", "drains", "readmits", "warm", "cold", "quar")
	for _, b := range rep.Fleet {
		fmt.Printf("%-4d %-9s %7d %6d %5d %5d %5d %7d %8d %5d %5d %6d\n",
			b.Index, b.Health, b.Routed, b.OK, b.Shed, b.Errors, b.Dropped,
			b.Drains, b.Readmits, b.WarmRestarts, b.ColdRestarts, b.Quarantines)
	}
	fmt.Println("\nBALANCER")
	fmt.Printf("  retries     %6d\n", rep.Retries)
	fmt.Printf("  hedges      %6d (%d won)\n", rep.Hedges, rep.HedgeWins)
	fmt.Printf("  failovers   %6d\n", rep.Failovers)
	fmt.Printf("  drains      %6d (%d re-admissions)\n", rep.Drains, rep.Readmits)
	fmt.Printf("  route faults %5d\n", rep.RouteFaults)
}

func main() {
	workload := flag.Bool("workload", true, "run a short HTTP workload before dumping")
	asJSON := flag.Bool("json", false, "emit the report as machine-readable JSON")
	ring := flag.Int("ring", 1<<14, "trace ring capacity in events per core shard (0 = tracing off)")
	metricsInterval := flag.Uint64("metrics-interval", 500_000, "metrics snapshot interval in virtual cycles (0 = metrics off)")
	checkpoint := flag.Uint64("checkpoint", 500_000, "checkpoint interval in virtual cycles (0 = checkpoints off)")
	clusterN := flag.Int("cluster", 0, "inspect an N-backend virtual cluster after a scripted failover instead of one system")
	flag.Parse()

	if *clusterN > 0 {
		inspectCluster(*clusterN, *asJSON)
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
	m := tgt.Sys.M

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(buildReport(m)); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println("CUBICLES")
	fmt.Printf("%-4s %-10s %-9s %-4s %-8s %-11s %-8s %s\n",
		"id", "name", "kind", "key", "windows", "health", "restarts", "exports")
	for _, c := range m.Cubicles() {
		exports := c.Exports()
		sort.Strings(exports)
		show := exports
		if len(show) > 4 {
			show = append(append([]string{}, show[:4]...), fmt.Sprintf("… (%d total)", len(exports)))
		}
		fmt.Printf("%-4d %-10s %-9s %-4d %-8d %-11s %-8d %v\n", c.ID, c.Name, c.Kind, c.Key,
			m.WindowCount(c.ID), c.Health(), c.Restarts(), show)
		if lf := c.LastFault(); lf != nil {
			fmt.Printf("     last fault: %v\n", lf)
		}
		if info, ok := m.LastCheckpoint(c.ID); ok {
			fmt.Printf("     last checkpoint: cycle %d, %d bytes, %d heap pages\n",
				info.Cycle, info.Bytes, info.Pages)
		}
	}

	fmt.Println("\nPAGE MAP (pages by owner and type)")
	type key struct {
		owner int
		typ   vm.PageType
	}
	counts := map[key]int{}
	m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		counts[key{p.Owner, p.Type}]++
	})
	names := map[int]string{int(cubicle.MonitorID): "MONITOR"}
	for _, c := range m.Cubicles() {
		names[int(c.ID)] = c.Name
	}
	var keys []key
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].owner != keys[j].owner {
			return keys[i].owner < keys[j].owner
		}
		return keys[i].typ < keys[j].typ
	})
	for _, k := range keys {
		owner := names[k.owner]
		if owner == "" {
			owner = fmt.Sprintf("cubicle-%d", k.owner)
		}
		fmt.Printf("  %-10s %-7s %6d pages (%d KiB)\n", owner, k.typ, counts[k],
			counts[k]*vm.PageSize/1024)
	}

	fmt.Println("\nTRAMPOLINES")
	trs := m.Trampolines()
	fmt.Printf("  %d cross-cubicle call trampolines installed (one per public symbol)\n", len(trs))
	for i, tr := range trs {
		if i >= 8 {
			fmt.Printf("  … and %d more\n", len(trs)-8)
			break
		}
		fmt.Printf("  %s\n", tr.Symbol())
	}

	st := m.Stats
	fmt.Println("\nEVENT COUNTERS")
	fmt.Printf("  cross-cubicle calls   %10d\n", st.CallsTotal)
	fmt.Printf("  shared-cubicle calls  %10d\n", st.SharedCalls)
	fmt.Printf("  protection traps      %10d (%d denied)\n", st.Faults, st.DeniedFaults)
	fmt.Printf("  page retags           %10d\n", st.Retags)
	fmt.Printf("  wrpkru executions     %10d\n", st.WRPKRUs)
	fmt.Printf("  window operations     %10d\n", st.WindowOps)
	fmt.Printf("  window search steps   %10d\n", st.WindowSearchSteps)
	fmt.Printf("  stack arg bytes       %10d\n", st.StackBytesCopied)
	fmt.Printf("  bulk bytes copied     %10d\n", st.BulkBytesCopied)
	fmt.Printf("  contained faults      %10d (%d injected)\n", st.ContainedFaults, st.InjectedFaults)
	fmt.Printf("  quarantines           %10d (%d restarts)\n", st.Quarantines, st.Restarts)
	fmt.Printf("  warm restarts         %10d (%d cold)\n", st.WarmRestarts, st.ColdRestarts)
	fmt.Printf("  checkpoints taken     %10d (%d bytes)\n", st.Checkpoints, st.CheckpointBytes)
	fmt.Printf("  load sheds            %10d\n", st.Sheds)
	fmt.Printf("  deadline faults       %10d\n", st.DeadlineFaults)
	fmt.Printf("  quota faults          %10d\n", st.QuotaFaults)
	fmt.Printf("  crossing retries      %10d\n", st.Retries)
	fmt.Printf("  retag shootdowns      %10d\n", st.TLBShootdowns)
	fmt.Printf("  virtual time          %10d cycles (%.3f ms at 2.2 GHz)\n",
		m.Clock.Cycles(), float64(m.Clock.Duration().Microseconds())/1000)

	if trc := m.Tracer(); trc != nil {
		fmt.Println("\nTRACE RING SHARDS")
		for c := 0; c < trc.Cores(); c++ {
			fmt.Printf("  core %d: %d events recorded, %d dropped, %d retained in ring\n",
				c, trc.ShardRecorded(c), trc.ShardDropped(c), len(trc.ShardEvents(c)))
		}
	}
	if m.MetricsEnabled() {
		fmt.Println("\nMETRICS PIPELINE")
		fmt.Printf("  interval %d cycles; %d snapshots recorded, %d dropped from ring\n",
			m.MetricsInterval(), m.MetricsRecorded(), m.MetricsDropped())
		if s, ok := m.LastMetricsSample(); ok {
			fmt.Printf("  last sample: cycle %d  calls/s %.0f  faults/s %.0f  xing p99 %dcy\n",
				s.Cycle, s.CallRate, s.FaultRate, s.CallP99)
		}
	}
}
