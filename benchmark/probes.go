package main

import (
	"math/rand"
	"runtime"
	"time"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/siege"
	"cubicleos/internal/sqldb"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// The micro-probes time single mechanisms on bare booted systems, from
// outside, in host nanoseconds per call. Every probe takes samples of a
// batch of calls until its slice of the run is used up and reports their
// quiet-core estimate; a ratio interleaves its two sides batch by batch,
// so that host drift hits both and cancels in the quotient, and reports
// the median quotient.

const probeCount = 12

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// timeBatches runs fn(batch) for d and returns host ns per call, one
// sample a batch.
func timeBatches(d time.Duration, batch int, fn func(n int)) []float64 {
	var out []float64
	for start := time.Now(); len(out) < 5 || time.Since(start) < d; {
		t0 := time.Now()
		fn(batch)
		out = append(out, float64(time.Since(t0))/float64(batch))
	}
	return out
}

// pairBatches alternates a and b for d and returns each side's host ns
// per call and the per-pair quotients a÷b.
func pairBatches(d time.Duration, batch int, a, b func(n int)) (aNs, bNs, quot []float64) {
	for start := time.Now(); len(quot) < 5 || time.Since(start) < d; {
		t0 := time.Now()
		a(batch)
		t1 := time.Now()
		b(batch)
		ta, tb := float64(t1.Sub(t0)), float64(time.Since(t1))
		aNs, bNs = append(aNs, ta/float64(batch)), append(bNs, tb/float64(batch))
		quot = append(quot, ta/tb)
	}
	return aNs, bNs, quot
}

// pairWorld is two isolated cubicles in ModeFull: A, which the probes
// run as and which owns a four-page buffer windowed to B, and B, which
// exports a no-op and a one-byte store.
type pairWorld struct {
	m           *cubicle.Monitor
	env         *cubicle.Env
	a, b        cubicle.ID
	buf         vm.Addr
	wid         cubicle.WID
	noop, touch cubicle.Handle
}

func newPairWorld(traced bool) (*pairWorld, error) {
	bl := cubicle.NewBuilder()
	bl.MustAdd(&cubicle.Component{Name: "A", Kind: cubicle.KindIsolated, Exports: []cubicle.ExportDecl{
		{Name: "a_main", Fn: func(*cubicle.Env, []uint64) []uint64 { return nil }}}})
	bl.MustAdd(&cubicle.Component{Name: "B", Kind: cubicle.KindIsolated, Exports: []cubicle.ExportDecl{
		{Name: "b_noop", Fn: func(*cubicle.Env, []uint64) []uint64 { return nil }},
		{Name: "b_touch", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
			e.StoreByte(vm.Addr(a[0]), 1)
			return nil
		}}}})
	si, err := bl.Build()
	if err != nil {
		return nil, err
	}
	w := &pairWorld{m: cubicle.NewMonitor(cubicle.ModeFull, cycles.DefaultCosts())}
	if traced {
		w.m.EnableTracing(1 << 12)
	}
	cubs, err := cubicle.NewLoader(w.m).LoadSystem(si, nil)
	if err != nil {
		return nil, err
	}
	w.env = w.m.NewEnv(w.m.NewThread())
	w.a, w.b = cubs["A"].ID, cubs["B"].ID
	w.noop = w.m.MustResolve(w.a, "B", "b_noop")
	w.touch = w.m.MustResolve(w.a, "B", "b_touch")
	err = w.as(func(e *cubicle.Env) {
		w.buf = e.HeapAlloc(4 * vm.PageSize)
		e.Memset(w.buf, 0x3C, 4*vm.PageSize)
		w.wid = e.WindowInit()
		e.WindowAdd(w.wid, w.buf, vm.PageSize)
	})
	return w, err
}

// as runs fn with cubicle A's privileges.
func (w *pairWorld) as(fn func(e *cubicle.Env)) error { return w.m.RunAs(w.env, w.a, fn) }

// fsWorld is a booted file-system stack with an application cubicle that
// holds a windowed I/O page and an open 4 KiB file.
type fsWorld struct {
	sys   *boot.System
	alloc *ualloc.Client
	vfs   *vfscore.Client
	buf   vm.Addr
	fd    uint64
}

func newFSWorld() (*fsWorld, error) {
	app := &cubicle.Component{Name: "APP", Kind: cubicle.KindIsolated, Exports: []cubicle.ExportDecl{
		{Name: "app_main", Fn: func(*cubicle.Env, []uint64) []uint64 { return nil }}}}
	sys, err := boot.NewFS(boot.Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{app}})
	if err != nil {
		return nil, err
	}
	w := &fsWorld{sys: sys}
	err = sys.RunAs("APP", func(e *cubicle.Env) {
		id := sys.Cubs["APP"].ID
		w.alloc = ualloc.NewClient(sys.M, id)
		w.vfs = vfscore.NewClient(sys.M, id)
		w.vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		w.buf = e.HeapAlloc(vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, w.buf, vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
		e.Memset(w.buf, 0x5A, vm.PageSize)
		fd, errno := w.vfs.Open(e, "/probe.bin", vfscore.OCreat|vfscore.ORdwr)
		if errno != 0 {
			panic(&cubicle.APIError{Cubicle: id, Op: "open", Reason: "probe file"})
		}
		w.fd = fd
		w.vfs.PWrite(e, fd, w.buf, vm.PageSize, 0)
	})
	return w, err
}

const probeSQL = "SELECT a, b, count(*) FROM z1 WHERE a > 10 AND b < 2000 AND c LIKE 'x%' GROUP BY a ORDER BY b DESC LIMIT 5"

// probes runs every micro-probe and reports the three derived shares:
// an event count of this workload times the probed cost of one such
// event, as a share of sutNs, the host time per operation the workload
// spends inside the system under test.
func (r *run) probes(sutNs float64) {
	slice := r.budget(0.45) / probeCount
	pw, err := newPairWorld(false)
	if err != nil {
		r.problemf("probe world: %v", err)
		return
	}
	traced, err := newPairWorld(true)
	if err != nil {
		r.problemf("probe world: %v", err)
		return
	}
	fw, err := newFSWorld()
	if err != nil {
		r.problemf("probe world: %v", err)
		return
	}
	inA := func(w *pairWorld, fn func(e *cubicle.Env, n int)) func(int) {
		return func(n int) {
			if err := w.as(func(e *cubicle.Env) { fn(e, n) }); err != nil {
				r.problemf("probe: %v", err)
			}
		}
	}
	inApp := func(fn func(e *cubicle.Env, n int)) func(int) {
		return func(n int) {
			if err := fw.sys.RunAs("APP", func(e *cubicle.Env) { fn(e, n) }); err != nil {
				r.problemf("probe: %v", err)
			}
		}
	}

	r.putSampled("vm.span_ns", quiet, timeBatches(slice, 4096, func(n int) {
		for i := 0; i < n; i++ {
			_ = pw.m.AS.Span(pw.buf.Add(uint64(i)&(vm.PageSize-64)), 64, func(_ uint64, chunk []byte) { sink += uint64(chunk[0]) })
		}
	}))

	loadBytes := func(e *cubicle.Env, n int) {
		for i := 0; i < n; i++ {
			sink += uint64(e.LoadByte(pw.buf.Add(uint64(i) & (vm.PageSize - 1))))
		}
	}
	tlbNs, naiveNs, _ := pairBatches(slice*2, 4096,
		inA(pw, func(e *cubicle.Env, n int) { pw.m.SetTLBEnabled(true); loadBytes(e, n) }),
		inA(pw, func(e *cubicle.Env, n int) { pw.m.SetTLBEnabled(false); loadBytes(e, n) }))
	pw.m.SetTLBEnabled(true)
	r.putSampled("cubicle.loadbyte_ns", quiet, tlbNs)
	r.putSampled("cubicle.loadbyte_naive_ns", quiet, naiveNs)

	r.putSampled("cubicle.memcpy4k_ns", quiet, timeBatches(slice, 256, inA(pw, func(e *cubicle.Env, n int) {
		for i := 0; i < n; i++ {
			e.Memcpy(pw.buf.Add(2*vm.PageSize), pw.buf.Add(vm.PageSize), vm.PageSize)
		}
	})))

	crossing := func(w *pairWorld) func(int) {
		return inA(w, func(e *cubicle.Env, n int) {
			for i := 0; i < n; i++ {
				w.noop.Call(e)
			}
		})
	}
	_, plainNs, tax := pairBatches(slice*2, 512, crossing(traced), crossing(pw))
	r.putSampled("cubicle.crossing_ns", quiet, plainNs)
	r.putSampled("trace.crossing_paired_ratio", median, tax)

	// One window cycle: open for B, B's first touch traps and maps the
	// page to it, close, and the owner's touch traps it back.
	r.putSampled("cubicle.window_cycle_ns", quiet, timeBatches(slice, 128, inA(pw, func(e *cubicle.Env, n int) {
		for i := 0; i < n; i++ {
			e.WindowOpen(pw.wid, pw.b)
			pw.touch.Call(e, uint64(pw.buf))
			e.WindowClose(pw.wid, pw.b)
			e.StoreByte(pw.buf, 2)
		}
	})))

	r.putSampled("ualloc.malloc_free_ns", quiet, timeBatches(slice, 256, inApp(func(e *cubicle.Env, n int) {
		for i := 0; i < n; i++ {
			fw.alloc.Free(e, fw.alloc.Malloc(e, 256))
		}
	})))

	r.putSampled("vfscore.read4k_ns", quiet, timeBatches(slice, 128, inApp(func(e *cubicle.Env, n int) {
		for i := 0; i < n; i++ {
			if got, errno := fw.vfs.PRead(e, fw.fd, fw.buf, vm.PageSize, 0); errno != 0 || got != vm.PageSize {
				panic(&cubicle.APIError{Cubicle: e.Cubicle(), Op: "pread", Reason: "short read"})
			}
		}
	})))

	r.putSampled("sqldb.parse_ns", quiet, timeBatches(slice, 256, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sqldb.Parse(probeSQL); err != nil {
				r.problemf("probe: %v", err)
				return
			}
		}
	}))

	r.probeTLBOnHTTPD(slice)
	r.probeSMP(slice)

	if sutNs > 0 {
		m := r.metrics
		r.put("cubicle.crossing_est_share", m["cubicle.crossings_per_op"]*m["cubicle.crossing_ns"]/sutNs)
		r.put("cubicle.trap_est_share", m["cubicle.traps_per_op"]*m["cubicle.window_cycle_ns"]/sutNs)
		r.put("cubicle.bulk_copy_est_share", m["cubicle.bulk_bytes_per_op"]/vm.PageSize*m["cubicle.memcpy4k_ns"]/sutNs)
	}
}

// probeTLBOnHTTPD is the span TLB's end-to-end effect: the small-file
// request loop with the TLB on over the same loop with it off.
func (r *run) probeTLBOnHTTPD(slice time.Duration) {
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), 1, 4<<10)
	t, _, err := httpLoop{warm: 50}.setup(r, fs, siege.Options{Mode: cubicle.ModeFull}, plainFetch)
	if err != nil {
		r.problemf("probe: %v", err)
		return
	}
	loop := func(on bool) func(int) {
		return func(n int) {
			t.Sys.M.SetTLBEnabled(on)
			for i := 0; i < n; i++ {
				r.fetch(plainFetch, t, fs, 0, -1)
			}
		}
	}
	_, _, quot := pairBatches(slice, r.n(50), loop(true), loop(false))
	r.putSampled("cubicle.tlb_httpd_paired_ratio", median, quot)
}

// probeSMP is the sharded open-loop driver's host cost per arrival on
// two cores over one core. It reads 0 on a single-CPU host.
func (r *run) probeSMP(slice time.Duration) {
	if runtime.NumCPU() < 2 {
		return
	}
	fs := makeFiles(rand.New(rand.NewSource(r.cfg.seed)), 1, 4<<10)
	perCore := r.n(4000)
	shard := func(cores int) float64 {
		st, err := siege.ParallelOpenLoop(cores, func(int) (*siege.Target, error) {
			t, _, err := httpLoop{}.setup(r, fs, siege.Options{Mode: cubicle.ModeFull}, plainFetch)
			return t, err
		}, siege.OpenLoopOptions{Path: fs.paths[0], Rate: r.seededRate(float64(prodRefRate * cores)), Requests: perCore * cores})
		if err != nil {
			r.problemf("probe: %v", err)
			return 0
		}
		r.countOpenLoop(&st.OpenLoopStats, true)
		return st.WallSeconds * 1e9 / float64(perCore*cores)
	}
	var quot []float64
	for start := time.Now(); len(quot) < 3 || time.Since(start) < slice; {
		one, two := shard(1), shard(2)
		if one == 0 || two == 0 {
			return
		}
		quot = append(quot, two/one)
	}
	r.putSampled("uksched.smp_c2_over_c1_host_ratio", median, quot)
}
