// Wall-clock benchmarks of the simulator's hot paths, developer tools run
// with `go test -run '^$' -bench <name> -benchmem .`, and the exact
// allocation gates of the crossing and the boot they measure. A bench's
// virtual metrics (vcycles/op, vms/op) are readings: the paper's figures
// and their gates are cubicle-bench's output and the rows of
// experiments.Claims, the ablations of DESIGN.md §4 are TestAblations
// (ablation_test.go), and host time is benchmark/run.sh's.
package cubicleos_test

import (
	"fmt"
	"runtime"
	"testing"

	"cubicleos"
	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

// raceBuild is set by race_test.go: the boot's allocation gate skips under
// the race detector, whose instrumentation moves the counts.
var raceBuild bool

// crossingShapes are the monitors the ping-pong crossing runs on: one per
// isolation mode, and ("supervised") the path production and the cluster
// take — full isolation with a supervisor and a checkpoint cadence
// attached, so the crossing is admitted, contained and consults every
// attachment. Every shape runs the same crossing body.
var crossingShapes = []struct {
	name       string
	mode       cubicleos.Mode
	supervised bool
}{
	{"unikraft", cubicleos.ModeUnikraft, false},
	{"no-mpk", cubicleos.ModeTrampoline, false},
	{"no-acl", cubicleos.ModeNoACL, false},
	{"cubicleos", cubicleos.ModeFull, false},
	{"supervised", cubicleos.ModeFull, true},
}

// reportVirtual attaches the virtual cycles spent over b.N operations.
func reportVirtual(b *testing.B, spent uint64) {
	per := float64(spent) / float64(b.N)
	b.ReportMetric(per, "vcycles/op")
	b.ReportMetric(per/2.2e6, "vms/op")
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

// pingPong boots pairSystem on a monitor of the given shape and returns
// one operation: A calls B's b_touch on the window page, then touches the
// page itself, so the page ping-pongs between the two cubicles.
func pingPong(tb testing.TB, mode cubicleos.Mode, supervised bool) (*cubicleos.Monitor, func()) {
	mon := cubicleos.NewMonitor(mode, cubicleos.DefaultCosts())
	if supervised {
		mon.EnableContainment(cubicleos.DefaultRestartPolicy())
		mon.EnableCheckpoints(5_000_000)
	}
	env, a, h, buf := pairSystem(tb, mon, 1)
	body := func(e *cubicleos.Env) {
		h.Call(e, uint64(buf))
		e.StoreByte(buf, 2) // owner touch: forces the ping-pong
	}
	return mon, func() {
		if err := mon.RunAs(env, a, body); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCrossCubicleCallAllocatesNothing is the exact gate on the crossing in
// every shape: the argument word rides the thread's word stack and the
// traps reuse what the first crossings grew, so a ping-pong crossing
// allocates no object.
func TestCrossCubicleCallAllocatesNothing(t *testing.T) {
	for _, s := range crossingShapes {
		t.Run(s.name, func(t *testing.T) {
			_, op := pingPong(t, s.mode, s.supervised)
			for range 16 {
				op() // the per-edge stats entry, the stacks, the word stack
			}
			if got := testing.AllocsPerRun(1000, op); got != 0 {
				t.Errorf("a ping-pong crossing allocates %.0f objects, want 0", got)
			}
		})
	}
}

// BenchmarkCrossCubicleCall measures one ping-pong crossing in each shape.
func BenchmarkCrossCubicleCall(b *testing.B) {
	for _, s := range crossingShapes {
		b.Run(s.name, func(b *testing.B) {
			mon, op := pingPong(b, s.mode, s.supervised)
			start := mon.Clock.Cycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			reportVirtual(b, mon.Clock.Cycles()-start)
		})
	}
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

// bootTable2 boots the full Figure 5 deployment (builder, loader, wiring):
// the closest runtime analogue of the component inventory table.
func bootTable2(tb testing.TB) {
	if _, err := boot.NewFS(boot.Config{Mode: cubicleos.ModeFull, Net: true}); err != nil {
		tb.Fatal(err)
	}
}

// TestTable2BootAllocations: a warm boot allocates only what differs
// between boots (cubicles, trampolines, signatures, page-table entries);
// the default images, their frames and the guard pages are built once per
// process and shared. A boot allocates 402 objects, and now and then one
// more, as a map's growth follows its hash seed: the mean over 20 boots is
// 402 exactly, and the bytes, 45 904 a boot, are bounded 10 % above
// (580 120 bytes and 1 602 objects while every boot synthesised its images
// and wrote its code, thunk and guard pages afresh). Counted on one P, as
// the checkpoint sweep's are.
func TestTable2BootAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bootTable2(t)
	const boots = 20
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range boots {
		bootTable2(t)
	}
	runtime.ReadMemStats(&ms1)
	objs, bytes := (ms1.Mallocs-ms0.Mallocs)/boots, (ms1.TotalAlloc-ms0.TotalAlloc)/boots
	if objs > 402 || bytes > 50_495 {
		t.Errorf("a warm boot allocates %d bytes in %d objects, want at most 50 495 in 402", bytes, objs)
	}
}

// BenchmarkTable2Boot measures one warm boot.
func BenchmarkTable2Boot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bootTable2(b)
	}
}
