// Benchmarks regenerating the paper's tables and figures (run with
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out.
//
// Wall-clock numbers measure the simulator; the reproduced quantities are
// the virtual-cycle metrics reported via b.ReportMetric:
//
//	vcycles/op   virtual cycles consumed per operation
//	vms/op       modelled milliseconds (2.2 GHz) per operation
//
// cmd/cubicle-bench prints the full figure tables; these benches give the
// same series in `go test -bench` form.
package cubicleos_test

import (
	"fmt"
	"testing"

	"cubicleos"
	"cubicleos/internal/boot"
	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/experiments"
	"cubicleos/internal/siege"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/vm"
)

var benchModes = []struct {
	name string
	mode cubicleos.Mode
}{
	{"unikraft", cubicleos.ModeUnikraft},
	{"no-mpk", cubicleos.ModeTrampoline},
	{"no-acl", cubicleos.ModeNoACL},
	{"cubicleos", cubicleos.ModeFull},
}

// reportVirtual attaches the virtual-clock metrics to a bench.
func reportVirtual(b *testing.B, clock *cubicleos.Clock, start uint64) {
	spent := clock.Cycles() - start
	per := float64(spent) / float64(b.N)
	b.ReportMetric(per, "vcycles/op")
	b.ReportMetric(per/2.2e6, "vms/op")
}

// --- Figure 6: SQLite speedtest1 under the ablation ladder -------------------

// BenchmarkFig6Speedtest runs one representative group-A query (160,
// indexed selects) and one group-B query (410, random big-table lookups)
// per mode.
func BenchmarkFig6Speedtest(b *testing.B) {
	for _, q := range []int{160, 410} {
		for _, m := range benchModes {
			b.Run(fmt.Sprintf("q%d/%s", q, m.name), func(b *testing.B) {
				t, err := experiments.NewSQLiteTarget(m.mode, nil, 50, experiments.UnikraftWorkScale)
				if err != nil {
					b.Fatal(err)
				}
				if err := t.Setup(); err != nil {
					b.Fatal(err)
				}
				start := t.Sys.M.Clock.Cycles()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := t.RunQuery(q); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportVirtual(b, t.Sys.M.Clock, start)
			})
		}
	}
}

// --- Figure 7: NGINX download latency vs transfer size ------------------------

func BenchmarkFig7Nginx(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20, 8 << 20} {
		for _, m := range []struct {
			name string
			mode cubicleos.Mode
		}{{"baseline", cubicleos.ModeUnikraft}, {"cubicleos", cubicleos.ModeFull}} {
			b.Run(fmt.Sprintf("%dB/%s", size, m.name), func(b *testing.B) {
				tgt, err := siege.NewTarget(m.mode)
				if err != nil {
					b.Fatal(err)
				}
				data := make([]byte, size)
				if err := tgt.PutFile("/f.bin", data); err != nil {
					b.Fatal(err)
				}
				if _, err := tgt.Fetch("/f.bin"); err != nil { // warm-up
					b.Fatal(err)
				}
				var total uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := tgt.Fetch("/f.bin")
					if err != nil {
						b.Fatal(err)
					}
					total += res.Cycles + tgt.RequestFloor
				}
				b.StopTimer()
				per := float64(total) / float64(b.N)
				b.ReportMetric(per, "vcycles/op")
				b.ReportMetric(per/2.2e6, "vms/op")
			})
		}
	}
}

// --- SMP: sharded open-loop siege across core counts ---------------------------

// BenchmarkSMPSiege drives the parallel open-loop driver at 1, 2 and 4
// simulated cores — one booted system per core, each stepped to completion
// by its own goroutine. wallrps is the wall-clock throughput figure that
// scales with host parallelism; ok is deterministic per configuration and
// must not move between runs or machines.
func BenchmarkSMPSiege(b *testing.B) {
	mk := func(core int) (*siege.Target, error) {
		tgt, err := siege.NewTarget(cubicleos.ModeFull)
		if err != nil {
			return nil, err
		}
		return tgt, tgt.PutFile("/index.html", make([]byte, 4096))
	}
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores-%d", cores), func(b *testing.B) {
			o := siege.OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 40}
			var last *siege.ParallelStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := siege.ParallelOpenLoop(cores, mk, o)
				if err != nil {
					b.Fatal(err)
				}
				last = ps
			}
			b.StopTimer()
			b.ReportMetric(last.WallRPS, "wallrps")
			b.ReportMetric(float64(last.OK), "ok")
		})
	}
}

// --- Cluster: goodput across fleet sizes ----------------------------------------

// BenchmarkClusterGoodput floods a virtual cluster of 1, 2 and 4
// backends at a per-backend rate of 1500 rps through the health-aware
// balancer. ns/op is the simulator cost; the virtual-time metrics
// (goodputrps, ok, crossings/arrival) are deterministic per fleet size —
// goodput must scale near-linearly with backends, which the cluster tests
// and `httpbench -cluster N -assert-degrade` gate.
func BenchmarkClusterGoodput(b *testing.B) {
	for _, backends := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends-%d", backends), func(b *testing.B) {
			var last *cluster.Stats
			var crossings uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Options{Backends: backends, Mode: cubicleos.ModeFull})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.PutFile("/index.html", make([]byte, 4096)); err != nil {
					b.Fatal(err)
				}
				fleet := func() (n uint64) {
					for _, be := range c.Backends {
						n += be.T.Sys.M.Stats.CallsTotal
					}
					return n
				}
				start := fleet()
				st, err := c.RunOpenLoop(cluster.RunOptions{
					Path: "/index.html", Rate: 1500 * float64(backends), Requests: 40 * backends})
				if err != nil {
					b.Fatal(err)
				}
				last, crossings = st, fleet()-start
			}
			b.StopTimer()
			b.ReportMetric(last.GoodputRPS, "goodputrps")
			b.ReportMetric(float64(last.OK), "ok")
			b.ReportMetric(float64(crossings)/float64(last.Arrivals), "crossings/arrival")
		})
	}
}

// --- Figures 5 and 8: call-count graphs ----------------------------------------

func BenchmarkFig5CallCounts(b *testing.B) {
	tgt, err := siege.NewTarget(cubicleos.ModeFull)
	if err != nil {
		b.Fatal(err)
	}
	if err := tgt.PutFile("/f.html", make([]byte, 32<<10)); err != nil {
		b.Fatal(err)
	}
	tgt.Sys.M.Stats.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tgt.Fetch("/f.html"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tgt.Sys.M.Stats.CallsTotal)/float64(b.N), "xcalls/op")
	b.ReportMetric(float64(tgt.Sys.M.Stats.Faults)/float64(b.N), "traps/op")
}

func BenchmarkFig8CallCounts(b *testing.B) {
	t, err := experiments.NewSQLiteTarget(cubicleos.ModeFull, nil, 5, experiments.UnikraftWorkScale)
	if err != nil {
		b.Fatal(err)
	}
	if err := t.Setup(); err != nil {
		b.Fatal(err)
	}
	t.Sys.M.Stats.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.RunQuery(160); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(t.Sys.M.Stats.CallsTotal)/float64(b.N), "xcalls/op")
	b.ReportMetric(float64(t.Sys.M.Stats.Retags)/float64(b.N), "retags/op")
}

// --- Figure 10: partitioning comparison -----------------------------------------

func BenchmarkFig10aKernels(b *testing.B) {
	// One representative OS-heavy query (410) per system; vcycles/op is
	// the series behind the Figure 10a bars.
	run := func(b *testing.B, clock *cubicleos.Clock, step func() error) {
		start := clock.Cycles()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportVirtual(b, clock, start)
	}
	b.Run("CubicleOS-4", func(b *testing.B) {
		t, err := experiments.NewSQLiteTarget(cubicleos.ModeFull, experiments.Groups4, 50, experiments.UnikraftWorkScale)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Setup(); err != nil {
			b.Fatal(err)
		}
		run(b, t.Sys.M.Clock, func() error { _, err := t.RunQuery(410); return err })
	})
	b.Run("Unikraft", func(b *testing.B) {
		t, err := experiments.NewSQLiteTarget(cubicleos.ModeUnikraft, nil, 50, experiments.UnikraftWorkScale)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Setup(); err != nil {
			b.Fatal(err)
		}
		run(b, t.Sys.M.Clock, func() error { _, err := t.RunQuery(410); return err })
	})
}

func BenchmarkFig10bSeparation(b *testing.B) {
	// The CubicleOS separation cost: the same query on the 3- and
	// 4-compartment deployments.
	for _, cfg := range []struct {
		name   string
		groups map[string]string
	}{
		{"3-compartments", experiments.Groups3},
		{"4-compartments", experiments.Groups4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			t, err := experiments.NewSQLiteTarget(cubicleos.ModeFull, cfg.groups, 50, experiments.UnikraftWorkScale)
			if err != nil {
				b.Fatal(err)
			}
			if err := t.Setup(); err != nil {
				b.Fatal(err)
			}
			start := t.Sys.M.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := t.RunQuery(410); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, t.Sys.M.Clock, start)
		})
	}
}

// --- Micro-benchmarks of the core mechanisms -------------------------------------

// pairSystem boots two isolated components and a shared LIBC for the
// mechanism benches.
func pairSystem(b *testing.B, mode cubicleos.Mode) (*cubicleos.Monitor, *cubicleos.Env, cubicleos.Handle, cubicleos.Addr) {
	b.Helper()
	return pairSystemOn(b, cubicleos.NewMonitor(mode, cubicleos.DefaultCosts()))
}

// pairSystemOn is pairSystem on a monitor the caller has configured.
func pairSystemOn(b *testing.B, m *cubicleos.Monitor) (*cubicleos.Monitor, *cubicleos.Env, cubicleos.Handle, cubicleos.Addr) {
	b.Helper()
	bl := cubicleos.NewBuilder()
	bl.MustAdd(&cubicleos.Component{Name: "A", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{{Name: "a_main", Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}}})
	bl.MustAdd(&cubicleos.Component{Name: "B", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{{Name: "b_touch", RegArgs: 1, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
			e.StoreByte(cubicleos.Addr(a[0]), 1)
			return nil
		}}}})
	si, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	cubs, err := cubicleos.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		b.Fatal(err)
	}
	env := m.NewEnv(m.NewThread())
	var buf cubicleos.Addr
	var h cubicleos.Handle
	if err := m.RunAs(env, cubs["A"].ID, func(e *cubicleos.Env) {
		buf = e.HeapAlloc(cubicleos.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, cubicleos.PageSize)
		e.WindowOpen(wid, e.CubicleOf("B"))
		h = m.MustResolve(e.Cubicle(), "B", "b_touch")
	}); err != nil {
		b.Fatal(err)
	}
	return m, env, h, buf
}

// BenchmarkCrossCubicleCall measures one cross-cubicle call (with the
// argument page ping-ponging between the two cubicles) per mode, and once
// more ("supervised") on the path production and the cluster take: full
// isolation with a supervisor and a checkpoint cadence attached, so the
// crossing is admitted, contained and consults every attachment. Every
// mode runs the same crossing body.
func BenchmarkCrossCubicleCall(b *testing.B) {
	run := func(name string, monitor func() *cubicleos.Monitor) {
		b.Run(name, func(b *testing.B) {
			mon, env, h, buf := pairSystemOn(b, monitor())
			cubs := cubicleNamed(mon, "A")
			start := mon.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mon.RunAs(env, cubs.ID, func(e *cubicleos.Env) {
					h.Call(e, uint64(buf))
					e.StoreByte(buf, 2) // owner touch: forces the ping-pong
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, mon.Clock, start)
		})
	}
	for _, m := range benchModes {
		run(m.name, func() *cubicleos.Monitor { return cubicleos.NewMonitor(m.mode, cubicleos.DefaultCosts()) })
	}
	run("supervised", func() *cubicleos.Monitor {
		m := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
		m.EnableContainment(cubicleos.DefaultRestartPolicy())
		m.EnableCheckpoints(5_000_000)
		return m
	})
}

// productionTarget boots the deployment a cluster backend runs — full
// isolation, supervisor, 5 M-cycle checkpoint cadence, closed sockets
// reaped — with 32 files of 4 KiB in its RAMFS.
const productionCheckpointInterval = 5_000_000

func productionTarget(b testing.TB) *siege.Target {
	b.Helper()
	policy := cubicleos.DefaultRestartPolicy()
	tgt, err := siege.NewTargetOpts(siege.Options{Mode: cubicleos.ModeFull, Supervision: &policy,
		CheckpointInterval: productionCheckpointInterval, ReapClosed: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := tgt.PutFile(fmt.Sprintf("/f%d", i), make([]byte, 4<<10)); err != nil {
			b.Fatal(err)
		}
	}
	return tgt
}

// BenchmarkIdleStep measures one nginx_step that finds nothing to do on a
// server holding N idle keep-alive connections — lwip_poll, an empty
// accept, one lwip_recv crossing per connection. It is the first step of a
// cluster quantum on a backend with nothing to do: about 3 of the 7 steps
// cluster_failover takes an arrival (ROADMAP item 8).
func BenchmarkIdleStep(b *testing.B) {
	for _, conns := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("conns-%d", conns), func(b *testing.B) {
			tgt := productionTarget(b)
			kas := make([]*siege.KAConn, conns)
			for i := range kas {
				kas[i] = tgt.OpenKA()
			}
			// One exchange each leaves every connection reset for its next
			// request, as the balancer's pool keeps them.
			for sent, answered := 0, 0; answered < conns; {
				tgt.Step()
				tgt.Peer.Pump()
				for ; sent < conns && kas[sent].Conn.Established; sent++ {
					kas[sent].Request("/f0")
				}
				for ; answered < sent; answered++ {
					if res, err := kas[answered].Next(); err != nil {
						b.Fatal(err)
					} else if res == nil {
						break
					}
				}
			}
			for tgt.Step() != 0 {
				tgt.Peer.Pump()
			}
			if tgt.Srv.Conns() != conns {
				b.Fatalf("server holds %d connections, want %d", tgt.Srv.Conns(), conns)
			}
			clock := tgt.Sys.M.Clock
			start := clock.Cycles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tgt.Step()
			}
			b.StopTimer()
			reportVirtual(b, clock, start)
		})
	}
}

// BenchmarkCheckpointSweep measures one checkpoint sweep of a provisioned,
// idle target in steady state: the clock is pushed past the cadence
// threshold, and the nginx_step that follows (connectionless: see
// BenchmarkIdleStep for what a step costs by itself) captures every
// checkpointable cubicle. Two sweeps before the timer grow the image, the
// hooks' blobs and both encode buffers of each record to their size, so a
// timed sweep allocates nothing (TestCheckpointSweepAllocatesNothing).
func BenchmarkCheckpointSweep(b *testing.B) {
	tgt := productionTarget(b)
	m := tgt.Sys.M
	for i := 0; i < 2; i++ {
		m.Clock.Charge(productionCheckpointInterval)
		tgt.Step()
	}
	sweeps, bytes := m.Stats.Checkpoints, m.Stats.CheckpointBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Clock.Charge(productionCheckpointInterval)
		tgt.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats.Checkpoints-sweeps)/float64(b.N), "checkpoints/op")
	b.ReportMetric(float64(m.Stats.CheckpointBytes-bytes)/float64(b.N), "ckptbytes/op")
}

// --- Ablations (DESIGN.md §4) -----------------------------------------------------

// BenchmarkAblationSharedBuffer compares the paper's trap-and-map design
// against the ERIM/Hodor-style alternative: a dedicated shared buffer
// that both sides copy through (two extra copies per transfer, no traps
// after warm-up).
//
// The numbers expose the design's real trade-off: for a small hot buffer
// in steady state, copying through a shared region is *cheaper* per
// transfer than the page ping-pong (two SIGSEGV round trips), which is
// exactly why CubicleOS's NGINX pays 2× on bulk I/O. What trap-and-map
// buys instead is what the paper argues for — unchanged pointer-based
// interfaces, no per-channel tag exhaustion, and zero copies.
func BenchmarkAblationSharedBuffer(b *testing.B) {
	const payload = 4096
	b.Run("trap-and-map", func(b *testing.B) {
		mon, env, h, buf := pairSystem(b, cubicleos.ModeFull)
		a := cubicleNamed(mon, "A")
		start := mon.Clock.Cycles()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mon.RunAs(env, a.ID, func(e *cubicleos.Env) {
				e.Memset(buf, byte(i), payload) // producer writes in place
				h.Call(e, uint64(buf))          // consumer reads via window
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportVirtual(b, mon.Clock, start)
	})
	b.Run("shared-buffer-copies", func(b *testing.B) {
		// The same transfer through a shared cubicle's buffer: producer
		// copies in, consumer copies out; the buffer's key is always
		// accessible so no traps occur, but every byte moves twice more.
		bl := cubicleos.NewBuilder()
		bl.MustAdd(&cubicleos.Component{Name: "A", Kind: cubicleos.KindIsolated,
			Exports: []cubicleos.ExportDecl{{Name: "a_main", Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}}})
		bl.MustAdd(&cubicleos.Component{Name: "B", Kind: cubicleos.KindIsolated,
			Exports: []cubicleos.ExportDecl{{Name: "b_consume", RegArgs: 2, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
				// Consumer copies from the shared buffer into its own.
				dst := e.HeapAlloc(payload)
				e.Memcpy(dst, cubicleos.Addr(a[0]), a[1])
				e.HeapFree(dst)
				return nil
			}}}})
		bl.MustAdd(&cubicleos.Component{Name: "SHM", Kind: cubicleos.KindShared,
			Exports: []cubicleos.ExportDecl{{Name: "shm_buf", Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}}})
		si, err := bl.Build()
		if err != nil {
			b.Fatal(err)
		}
		mon := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
		cubs, err := cubicleos.NewLoader(mon).LoadSystem(si, nil)
		if err != nil {
			b.Fatal(err)
		}
		env := mon.NewEnv(mon.NewThread())
		var shared, local cubicleos.Addr
		var h cubicleos.Handle
		if err := mon.RunAs(env, cubs["SHM"].ID, func(e *cubicleos.Env) {
			shared = e.HeapAlloc(payload) // shared-cubicle memory: key 15
		}); err != nil {
			b.Fatal(err)
		}
		if err := mon.RunAs(env, cubs["A"].ID, func(e *cubicleos.Env) {
			local = e.HeapAlloc(payload)
			h = mon.MustResolve(e.Cubicle(), "B", "b_consume")
		}); err != nil {
			b.Fatal(err)
		}
		start := mon.Clock.Cycles()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mon.RunAs(env, cubs["A"].ID, func(e *cubicleos.Env) {
				e.Memset(local, byte(i), payload)
				e.Memcpy(shared, local, payload) // copy in
				h.Call(e, uint64(shared), payload)
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportVirtual(b, mon.Clock, start)
	})
}

// BenchmarkAblationEagerRevoke compares causal (lazy) tag consistency
// against eager revocation, where the owner touches every page at window
// close to force the retag immediately.
func BenchmarkAblationEagerRevoke(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy-causal"
		if eager {
			name = "eager-revoke"
		}
		b.Run(name, func(b *testing.B) {
			mon, env, h, buf := pairSystem(b, cubicleos.ModeFull)
			a := cubicleNamed(mon, "A")
			start := mon.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mon.RunAs(env, a.ID, func(e *cubicleos.Env) {
					h.Call(e, uint64(buf))
					if eager {
						// Owner forces the page back immediately.
						e.StoreByte(buf, 0)
					}
					// Next call re-faults only in the eager variant.
					h.Call(e, uint64(buf))
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, mon.Clock, start)
		})
	}
}

// BenchmarkAblationWindowSearch sweeps the per-cubicle window count to
// show the linear descriptor search cost the paper accepts ("all but one
// cubicle have less than ten windows").
func BenchmarkAblationWindowSearch(b *testing.B) {
	for _, nwin := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("windows-%d", nwin), func(b *testing.B) {
			mon, env, h, _ := pairSystem(b, cubicleos.ModeFull)
			a := cubicleNamed(mon, "A")
			var bufs []cubicleos.Addr
			if err := mon.RunAs(env, a.ID, func(e *cubicleos.Env) {
				for i := 0; i < nwin; i++ {
					buf := e.HeapAlloc(cubicleos.PageSize)
					wid := e.WindowInit()
					e.WindowAdd(wid, buf, cubicleos.PageSize)
					e.WindowOpen(wid, e.CubicleOf("B"))
					bufs = append(bufs, buf)
				}
			}); err != nil {
				b.Fatal(err)
			}
			start := mon.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mon.RunAs(env, a.ID, func(e *cubicleos.Env) {
					// Touch the last window's buffer: worst-case search.
					target := bufs[len(bufs)-1]
					h.Call(e, uint64(target))
					e.StoreByte(target, 0)
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, mon.Clock, start)
			b.ReportMetric(float64(mon.Stats.WindowSearchSteps)/float64(b.N), "searchsteps/op")
		})
	}
}

// BenchmarkAblationSharedLibc compares LIBC as a shared cubicle (the
// paper's design: calls never enter the TCB) against an isolated LIBC
// cubicle (every memcpy is a cross-cubicle call needing windows).
func BenchmarkAblationSharedLibc(b *testing.B) {
	build := func(kind cubicle.Kind) (*cubicleos.Monitor, *cubicleos.Env, cubicleos.Handle, cubicleos.Addr, cubicleos.Addr) {
		bl := cubicleos.NewBuilder()
		bl.MustAdd(&cubicleos.Component{Name: "APP", Kind: cubicleos.KindIsolated,
			Exports: []cubicleos.ExportDecl{{Name: "app_main", Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}}})
		bl.MustAdd(&cubicleos.Component{Name: "LIBC", Kind: kind,
			Exports: []cubicleos.ExportDecl{{Name: "memcpy", RegArgs: 3, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
				e.Memcpy(cubicleos.Addr(a[0]), cubicleos.Addr(a[1]), a[2])
				return nil
			}}}})
		si, err := bl.Build()
		if err != nil {
			b.Fatal(err)
		}
		mon := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
		cubs, err := cubicleos.NewLoader(mon).LoadSystem(si, nil)
		if err != nil {
			b.Fatal(err)
		}
		env := mon.NewEnv(mon.NewThread())
		var src, dst cubicleos.Addr
		var h cubicleos.Handle
		if err := mon.RunAs(env, cubs["APP"].ID, func(e *cubicleos.Env) {
			src = e.HeapAlloc(vm.PageSize)
			dst = e.HeapAlloc(vm.PageSize)
			if kind == cubicleos.KindIsolated {
				// An isolated LIBC must be granted windows over both
				// buffers — exactly the burden the shared design avoids.
				for _, buf := range []cubicleos.Addr{src, dst} {
					wid := e.WindowInit()
					e.WindowAdd(wid, buf, vm.PageSize)
					e.WindowOpen(wid, e.CubicleOf("LIBC"))
				}
			}
			h = mon.MustResolve(e.Cubicle(), "LIBC", "memcpy")
		}); err != nil {
			b.Fatal(err)
		}
		return mon, env, h, src, dst
	}
	for _, cfg := range []struct {
		name string
		kind cubicle.Kind
	}{{"shared", cubicleos.KindShared}, {"isolated", cubicleos.KindIsolated}} {
		b.Run(cfg.name, func(b *testing.B) {
			mon, env, h, src, dst := build(cfg.kind)
			app := cubicleNamed(mon, "APP")
			start := mon.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mon.RunAs(env, app.ID, func(e *cubicleos.Env) {
					e.StoreByte(src, byte(i)) // producer dirties its buffer
					h.Call(e, uint64(dst), uint64(src), 512)
					e.StoreByte(dst, byte(i)) // consumer touch
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, mon.Clock, start)
		})
	}
}

// BenchmarkAblationTagVirtualisation measures key recycling: round-robin
// calls across more isolated cubicles than MPK keys versus a set that
// fits the hardware's 14 free keys.
func BenchmarkAblationTagVirtualisation(b *testing.B) {
	for _, n := range []int{8, 24} {
		b.Run(fmt.Sprintf("cubicles-%d", n), func(b *testing.B) {
			bl := cubicleos.NewBuilder()
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("C%02d", i)
				bl.MustAdd(&cubicleos.Component{Name: name, Kind: cubicleos.KindIsolated,
					Exports: []cubicleos.ExportDecl{{Name: "touch_" + name, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
						buf := e.HeapAlloc(64)
						e.Memset(buf, 1, 64)
						e.HeapFree(buf)
						return nil
					}}}})
			}
			si, err := bl.Build()
			if err != nil {
				b.Fatal(err)
			}
			mon := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
			_, err = cubicleos.NewLoader(mon).LoadSystem(si, nil)
			if err != nil {
				b.Fatal(err)
			}
			env := mon.NewEnv(mon.NewThread())
			handles := make([]cubicleos.Handle, n)
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("C%02d", i)
				handles[i] = mon.MustResolve(cubicle.MonitorID, name, "touch_"+name)
			}
			start := mon.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handles[i%n].Call(env)
			}
			b.StopTimer()
			reportVirtual(b, mon.Clock, start)
			b.ReportMetric(float64(mon.Stats.KeyEvictions)/float64(b.N), "evictions/op")
		})
	}
}

// --- Warm-restart MTTR: checkpointed vs cold supervised recovery --------------

// BenchmarkWarmRestartMTTR drives the same deterministic chaos siege
// (faults injected into RAMFS) twice — once with the checkpoint manager
// armed, once without — and reports the availability comparison on the
// virtual clock: degraded cycles (MTTR), shed requests, and restart mix.
// Warm restores rewind RAMFS to its last checkpoint, so the warm series
// must show strictly fewer failures and strictly fewer degraded cycles;
// the assertion lives in TestWarmVsColdSiege, this bench publishes the
// numbers into BENCH_simulator.json.
func BenchmarkWarmRestartMTTR(b *testing.B) {
	type outcome struct {
		failed int
		mttr   uint64
		stats  cubicle.Stats
	}
	drive := func(checkpointInterval uint64) outcome {
		tgt, err := siege.NewTargetOpts(siege.Options{
			Mode:               cubicleos.ModeFull,
			CheckpointInterval: checkpointInterval,
		}.Chaotic(7))
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 16<<10)
		for i := range data {
			data[i] = byte(i)
		}
		if err := tgt.PutFile("/f.bin", data); err != nil {
			b.Fatal(err)
		}
		clk := tgt.Sys.M.Clock
		tgt.Sys.Chaos.Arm()
		var out outcome
		degradedSince := uint64(0)
		for i := 0; i < 60; i++ {
			before := clk.Cycles()
			res, err := tgt.Fetch("/f.bin")
			if err == nil && res.Status == 200 {
				if degradedSince != 0 {
					out.mttr += clk.Cycles() - degradedSince
					degradedSince = 0
				}
				continue
			}
			out.failed++
			if degradedSince == 0 {
				degradedSince = before
			}
			if err == nil && res.Status == 404 {
				_ = tgt.PutFile("/f.bin", data) // operator re-provision: the cold path's recovery cost
			}
		}
		if degradedSince != 0 {
			out.mttr += clk.Cycles() - degradedSince
		}
		tgt.Sys.Chaos.Disarm()
		out.stats = tgt.Sys.M.Stats
		return out
	}
	var warm, cold outcome
	for i := 0; i < b.N; i++ {
		warm = drive(300_000)
		cold = drive(0)
	}
	b.ReportMetric(float64(warm.mttr), "warmdegradedcycles")
	b.ReportMetric(float64(cold.mttr), "colddegradedcycles")
	b.ReportMetric(float64(warm.failed), "warmfailed")
	b.ReportMetric(float64(cold.failed), "coldfailed")
	b.ReportMetric(float64(warm.stats.WarmRestarts), "warmrestarts")
	b.ReportMetric(float64(cold.stats.ColdRestarts), "coldrestarts")
	b.ReportMetric(float64(warm.stats.Checkpoints), "checkpoints")
	b.ReportMetric(float64(warm.stats.CheckpointBytes), "ckptbytes")
}

// --- Table 2: component inventory ---------------------------------------------

// BenchmarkTable2Boot measures system assembly (builder + loader + wiring)
// for the full Figure 5 deployment — the closest runtime analogue of the
// component inventory table.
func BenchmarkTable2Boot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := boot.NewFS(boot.Config{Mode: cubicleos.ModeFull, Net: true}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = speedtest.QueryIDs

// cubicleNamed returns the monitor's cubicle called name, or nil.
func cubicleNamed(m *cubicleos.Monitor, name string) *cubicle.Cubicle {
	for _, c := range m.Cubicles() {
		if c.Name == name {
			return c
		}
	}
	return nil
}
