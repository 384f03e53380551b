package main

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/httpd"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/plat"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/trace"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/uktime"
	"cubicleos/internal/vfscore"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one request share Req; Parent indexes the span that
// caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends, and the counts taken
// at the same boundaries: calls of Target.Step and frames Peer.Pump
// handled.
type spanLog struct {
	t0            time.Time
	spans         []span
	steps, frames int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, req, parent int) int {
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].End = int64(time.Since(l.t0)) }

// totals returns the summed duration of the spans of each name, over the
// spans from index from on.
func (l *spanLog) totals(from int) map[string]float64 {
	dur := map[string]float64{}
	for _, s := range l.spans[from:] {
		dur[s.Name] += float64(s.End - s.Start)
	}
	return dur
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostMeter sums Go allocations over the timed regions of a run and
// samples the resident set between them.
type hostMeter struct {
	before        runtime.MemStats
	mallocs, size uint64
	rssMiB        []float64
}

func (a *hostMeter) start() { runtime.ReadMemStats(&a.before) }

func (a *hostMeter) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	a.mallocs += now.Mallocs - a.before.Mallocs
	a.size += now.TotalAlloc - a.before.TotalAlloc
}

// sampleRSS records the process's resident set as the kernel reports it
// (the second field of /proc/self/statm, in pages).
func (a *hostMeter) sampleRSS() {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	if f := strings.Fields(string(raw)); len(f) > 1 {
		pages, _ := strconv.ParseFloat(f[1], 64)
		a.rssMiB = append(a.rssMiB, pages*float64(os.Getpagesize())/(1<<20))
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// putHostE2E reports the five host-side end-to-end metrics. hostNs is
// the quiet-core estimate of the host time per operation; perOp are the
// plain samples behind it, kept for their median and quartiles.
func (r *run) putHostE2E(setupS []float64, hostNs float64, perOp []float64, a *hostMeter, ops int) {
	r.putSampled("setup_s", median, setupS)
	r.put("host_ns_per_op", hostNs)
	r.dists["host_ns_per_op"] = summarise(perOp)
	r.put("allocs_per_op", float64(a.mallocs)/float64(ops))
	r.put("alloc_bytes_per_op", float64(a.size)/float64(ops))
	r.putSampled("rss_mb", median, a.rssMiB)
}

// snapshotStats copies the monitor's counters, call-edge map included.
func snapshotStats(m *cubicle.Monitor) cubicle.Stats {
	s := m.Stats
	s.Calls = make(map[cubicle.Edge]uint64, len(m.Stats.Calls))
	for e, n := range m.Stats.Calls {
		s.Calls[e] = n
	}
	return s
}

// statsSince returns now minus before, counter by counter. It walks the
// struct so that a counter added to cubicle.Stats needs no line here.
func statsSince(now, before cubicle.Stats) cubicle.Stats {
	d := cubicle.NewStats()
	dv, nv, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(now), reflect.ValueOf(before)
	for i := 0; i < dv.NumField(); i++ {
		if dv.Field(i).Kind() == reflect.Uint64 {
			dv.Field(i).SetUint(nv.Field(i).Uint() - bv.Field(i).Uint())
		}
	}
	for e, n := range now.Calls {
		if n -= before.Calls[e]; n > 0 {
			d.Calls[e] = n
		}
	}
	return d
}

// calleeMetric names the per-callee inbound-crossing metric of each
// component of the two deployments.
var calleeMetric = map[string]string{
	httpd.Name:   "httpd",
	lwip.Name:    "lwip",
	netdev.Name:  "netdev",
	vfscore.Name: "vfscore",
	ramfs.Name:   "ramfs",
	ualloc.Name:  "ualloc",
	uktime.Name:  "uktime",
	plat.Name:    "plat",
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// putCounts reports the architectural event counts of d per operation.
func (r *run) putCounts(d cubicle.Stats, ops int, cubs map[string]*cubicle.Cubicle) {
	per := func(n uint64) float64 { return float64(n) / float64(ops) }
	r.put("cubicle.crossings_per_op", per(d.CallsTotal))
	r.put("cubicle.shared_calls_per_op", per(d.SharedCalls))
	r.put("cubicle.traps_per_op", per(d.Faults))
	r.put("cubicle.retags_per_op", per(d.Retags))
	r.put("cubicle.window_ops_per_op", per(d.WindowOps))
	r.put("cubicle.window_search_steps_per_op", per(d.WindowSearchSteps))
	r.put("cubicle.stack_bytes_per_op", per(d.StackBytesCopied))
	r.put("cubicle.bulk_bytes_per_op", per(d.BulkBytesCopied))
	r.put("cubicle.tlb_hit_ratio", ratio(d.TLBHits, d.TLBHits+d.TLBMisses))
	r.put("cubicle.tlb_invalidations_per_op", per(d.TLBInvalidations))
	r.put("cubicle.contained_faults_per_op", per(d.ContainedFaults))
	r.put("cubicle.sheds_per_op", per(d.Sheds))
	r.put("cubicle.checkpoints_per_op", per(d.Checkpoints))
	r.put("cubicle.checkpoint_bytes_per_op", per(d.CheckpointBytes))
	r.put("cubicle.restarts_per_kop", 1000*per(d.Restarts))
	r.put("cubicle.denied_faults", float64(d.DeniedFaults))
	r.put("mpk.wrpkru_per_op", per(d.WRPKRUs))
	r.put("mpk.key_evictions_per_op", per(d.KeyEvictions))
	if d.DeniedFaults != 0 {
		r.problemf("%d denied faults: an isolation violation in a fault-free workload", d.DeniedFaults)
	}
	in := map[cubicle.ID]uint64{}
	for e, n := range d.Calls {
		in[e.To] += n
	}
	for comp, layer := range calleeMetric {
		if c := cubs[comp]; c != nil {
			r.put(layer+".calls_in_per_op", per(in[c.ID]))
		}
	}
}

// cubicleMetric names the self-cycle metric of each profiled cubicle;
// what is not listed (LIBC, RANDOM, TIME, PLAT, BOOT) is summed as other.
var cubicleMetric = map[string]string{
	httpd.Name:   "httpd.vcycles_per_op",
	lwip.Name:    "lwip.vcycles_per_op",
	netdev.Name:  "netdev.vcycles_per_op",
	vfscore.Name: "vfscore.vcycles_per_op",
	ramfs.Name:   "ramfs.vcycles_per_op",
	ualloc.Name:  "ualloc.vcycles_per_op",
	"SQLITE":     "sqldb.vcycles_per_op",
	"MONITOR":    "cubicle.monitor_vcycles_per_op",
}

// profileCycles flattens a profile to cycles per cubicle name.
func profileCycles(p trace.Profile) map[string]uint64 {
	out := map[string]uint64{}
	for _, e := range p.Entries {
		out[e.Name] += e.Cycles
	}
	return out
}

// putProfile reports the virtual self-cycles per operation of each
// cubicle between two profiles, and returns their total.
func (r *run) putProfile(now, before map[string]uint64, ops int) uint64 {
	per := map[string]float64{"cubicle.other_vcycles_per_op": 0}
	var total uint64
	for name, cyc := range now {
		cyc -= before[name]
		total += cyc
		metric, ok := cubicleMetric[name]
		if !ok {
			metric = "cubicle.other_vcycles_per_op"
		}
		per[metric] += float64(cyc) / float64(ops)
	}
	for metric, v := range per {
		r.put(metric, v)
	}
	return total
}
