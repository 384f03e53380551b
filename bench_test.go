// Wall-clock benchmarks of the simulator's hot paths; scripts/bench.sh
// names each one, records them in BENCH_simulator.json and gates their
// allocations. A bench's virtual metrics (vcycles/op, vms/op, ok, goodput)
// are readings: the paper's figures and their gates are cubicle-bench's
// output and the rows of experiments.Claims, and the ablations of
// DESIGN.md §4 are TestAblations (ablation_test.go).
package cubicleos_test

import (
	"fmt"
	"testing"

	"cubicleos"
	"cubicleos/internal/boot"
	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
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

// reportVirtual attaches the virtual cycles spent over b.N operations.
func reportVirtual(b *testing.B, spent uint64) {
	per := float64(spent) / float64(b.N)
	b.ReportMetric(per, "vcycles/op")
	b.ReportMetric(per/2.2e6, "vms/op")
}

// BenchmarkFig7Nginx fetches a warm file of each Figure 7 size, baseline and
// full isolation; scripts/bench.sh records the 64 KiB pair's wall clock.
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
				reportVirtual(b, total)
			})
		}
	}
}

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

// pairSystem boots two isolated components, A and B, on m. A holds windows
// pages, each with a window open to B, the last of them buf; h calls B's
// b_touch, which stores a byte at its argument.
func pairSystem(tb testing.TB, m *cubicleos.Monitor, windows int) (env *cubicleos.Env, a cubicle.ID, h cubicleos.Handle, buf cubicleos.Addr) {
	tb.Helper()
	env, cubs := loadSystem(tb, m,
		&cubicleos.Component{Name: "A", Kind: cubicleos.KindIsolated,
			Exports: []cubicleos.ExportDecl{{Name: "a_main", Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}}},
		&cubicleos.Component{Name: "B", Kind: cubicleos.KindIsolated,
			Exports: []cubicleos.ExportDecl{{Name: "b_touch", RegArgs: 1, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
				e.StoreByte(cubicleos.Addr(a[0]), 1)
				return nil
			}}}})
	a = cubs["A"].ID
	runAs(tb, m, env, a, func(e *cubicleos.Env) {
		for k := 0; k < windows; k++ {
			buf = e.HeapAlloc(cubicleos.PageSize)
			wid := e.WindowInit()
			e.WindowAdd(wid, buf, cubicleos.PageSize)
			e.WindowOpen(wid, e.CubicleOf("B"))
		}
		h = m.MustResolve(a, "B", "b_touch")
	})
	return env, a, h, buf
}

// loadSystem builds comps, loads them on m and returns a thread's Env.
func loadSystem(tb testing.TB, m *cubicleos.Monitor, comps ...*cubicleos.Component) (*cubicleos.Env, map[string]*cubicle.Cubicle) {
	tb.Helper()
	bl := cubicleos.NewBuilder()
	for _, c := range comps {
		bl.MustAdd(c)
	}
	si, err := bl.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cubs, err := cubicleos.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return m.NewEnv(m.NewThread()), cubs
}

// runAs runs fn as cubicle id on env's thread.
func runAs(tb testing.TB, m *cubicleos.Monitor, env *cubicleos.Env, id cubicle.ID, fn func(e *cubicleos.Env)) {
	tb.Helper()
	if err := m.RunAs(env, id, fn); err != nil {
		tb.Fatal(err)
	}
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
			mon := monitor()
			env, a, h, buf := pairSystem(b, mon, 1)
			start := mon.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mon.RunAs(env, a, func(e *cubicleos.Env) {
					h.Call(e, uint64(buf))
					e.StoreByte(buf, 2) // owner touch: forces the ping-pong
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportVirtual(b, mon.Clock.Cycles()-start)
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
			reportVirtual(b, clock.Cycles()-start)
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
