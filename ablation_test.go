// The ablations of DESIGN.md §4: each row builds one design decision as the
// paper made it and as the alternative it argues against. A variant runs
// ablationWarmup operations, then two measuring windows of ablationOps on
// the virtual clock: the windows must cost the same (steady state), their
// cycles are pinned exactly, and each row gates the relation its decision
// argues. The clock counts executed events, so every host and run reads the
// same; `go test -run TestAblations -v .` prints them.
package cubicleos_test

import (
	"fmt"
	"testing"

	"cubicleos"
	"cubicleos/internal/cubicle"
)

// Both lengths are multiples of 24, the key row's largest cubicle count, so
// its round robin calls every cubicle equally often in a window.
const ablationWarmup, ablationOps = 48, 48

// An ablationBoot loads a variant's system on m, a full-isolation monitor,
// and returns its operation, op, and the cubicle as: an operation is one
// RunAs of op as that cubicle on env's thread.
type ablationBoot = func(tb testing.TB, m *cubicleos.Monitor) (env *cubicleos.Env, as cubicle.ID, op func(e *cubicleos.Env, i int))

type ablationVariant struct {
	name string
	boot ablationBoot
	want uint64 // cycles an operation, pinned
}

var ablations = []struct {
	decision string
	variants []ablationVariant
	gate     func(per []uint64) (string, bool)
}{
	// Item 1: copies through an ERIM-style shared buffer cost less than
	// trap-and-map's two traps; the paper pays them for zero copies,
	// unchanged pointer interfaces and no key a channel.
	{"trap-and-map", []ablationVariant{
		{"shared-buffer-copies", sharedBufferCopies, 1348},
		{"trap-and-map", trapAndMap, 18104},
	}, costlier},
	// Item 2: a window closed lazily costs the next call nothing; eagerly
	// revoked (the owner touches the page), it costs two traps.
	{"causal-revocation", []ablationVariant{
		{"lazy-causal", revocation(false), 1140},
		{"eager-revoke", revocation(true), 18408},
	}, costlier},
	// Item 3: a trap searches A's window descriptors in order.
	{"window-search", []ablationVariant{
		{"windows-1", windowSearch(1), 17848},
		{"windows-8", windowSearch(8), 17904},
		{"windows-64", windowSearch(64), 18352},
	}, linearSearch},
	// Item 4: memcpy through a shared LIBC is a plain call; through an
	// isolated one, a crossing with two windows.
	{"shared-libc", []ablationVariant{
		{"shared", libc(cubicleos.KindShared), 52},
		{"isolated", libc(cubicleos.KindIsolated), 35156},
	}, costlier},
	// Item 5: round-robin calls into cubicles that fit the 14 free MPK keys,
	// and into 24, which evict keys.
	{"key-virtualisation", []ablationVariant{
		{"cubicles-8", roundRobin(8), 584},
		{"cubicles-24", roundRobin(24), 10314},
	}, costlier},
}

func TestAblations(t *testing.T) {
	for _, row := range ablations {
		t.Run(row.decision, func(t *testing.T) {
			per := make([]uint64, len(row.variants))
			for k, v := range row.variants {
				mon := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
				env, as, op := v.boot(t, mon)
				i := 0
				run := func(n int) uint64 {
					start := mon.Clock.Cycles()
					for end := i + n; i < end; i++ {
						runAs(t, mon, env, as, func(e *cubicleos.Env) { op(e, i) })
					}
					return mon.Clock.Cycles() - start
				}
				run(ablationWarmup)
				first, next := run(ablationOps), run(ablationOps)
				per[k] = first / ablationOps
				t.Logf("%-22s %6d cycles/op", v.name, per[k])
				if first != next || first != v.want*ablationOps {
					t.Errorf("%s: after %d operations, two windows of %d cost %d and %d cycles, want %d each (%d an operation)",
						v.name, ablationWarmup, ablationOps, first, next, v.want*ablationOps, v.want)
				}
			}
			got, ok := row.gate(per)
			t.Logf("gate: %s", got)
			if !ok {
				t.Errorf("gate fails: %s", got)
			}
		})
	}
}

// costlier holds when each variant costs more an operation than the one
// before it.
func costlier(per []uint64) (string, bool) {
	s, ok := fmt.Sprint(per[0]), true
	for k := 1; k < len(per); k++ {
		s += fmt.Sprintf(" < %d", per[k])
		ok = ok && per[k] > per[k-1]
	}
	return s, ok
}

// linearSearch holds when every descriptor past the first adds the same
// cycles, and ten windows cost less than 1 % more than one: the paper keeps
// a linear search because all but one cubicle have fewer than ten.
func linearSearch(per []uint64) (string, bool) {
	step := (per[2] - per[0]) / 63
	ok := per[2] > per[0] && per[2]-per[0] == 63*step && per[1]-per[0] == 7*step && 100*9*step < per[0]
	return fmt.Sprintf("+%d cycles a descriptor, ten windows %d over one's %d", step, 9*step, per[0]), ok
}

func sharedBufferCopies(tb testing.TB, mon *cubicleos.Monitor) (*cubicleos.Env, cubicle.ID, func(*cubicleos.Env, int)) {
	const n = cubicleos.PageSize
	env, cubs := loadSystem(tb, mon,
		&cubicleos.Component{Name: "A", Kind: cubicleos.KindIsolated},
		&cubicleos.Component{Name: "B", Kind: cubicleos.KindIsolated,
			Exports: []cubicleos.ExportDecl{{Name: "b_consume", RegArgs: 2, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
				dst := e.HeapAlloc(n) // the consumer copies out into its own buffer
				e.Memcpy(dst, cubicleos.Addr(a[0]), a[1])
				e.HeapFree(dst)
				return nil
			}}}},
		&cubicleos.Component{Name: "SHM", Kind: cubicleos.KindShared})
	var shared, local cubicleos.Addr
	var h cubicleos.Handle
	a := cubs["A"].ID
	runAs(tb, mon, env, cubs["SHM"].ID, func(e *cubicleos.Env) { shared = e.HeapAlloc(n) })
	runAs(tb, mon, env, a, func(e *cubicleos.Env) {
		local = e.HeapAlloc(n)
		h = mon.MustResolve(a, "B", "b_consume")
	})
	return env, a, func(e *cubicleos.Env, i int) {
		e.Memset(local, byte(i), n)
		e.Memcpy(shared, local, n) // the producer copies in
		h.Call(e, uint64(shared), n)
	}
}

// pairOp's operation runs op on the last of pairSystem's windows pages.
func pairOp(windows int, op func(e *cubicleos.Env, h cubicleos.Handle, buf cubicleos.Addr, i int)) ablationBoot {
	return func(tb testing.TB, mon *cubicleos.Monitor) (*cubicleos.Env, cubicle.ID, func(*cubicleos.Env, int)) {
		env, a, h, buf := pairSystem(tb, mon, windows)
		return env, a, func(e *cubicleos.Env, i int) { op(e, h, buf, i) }
	}
}

var trapAndMap = pairOp(1, func(e *cubicleos.Env, h cubicleos.Handle, buf cubicleos.Addr, i int) {
	e.Memset(buf, byte(i), cubicleos.PageSize) // the producer writes in place
	h.Call(e, uint64(buf))                     // the consumer reads through the window
})

func revocation(eager bool) ablationBoot {
	return pairOp(1, func(e *cubicleos.Env, h cubicleos.Handle, buf cubicleos.Addr, _ int) {
		h.Call(e, uint64(buf))
		if eager {
			e.StoreByte(buf, 0)
		}
		h.Call(e, uint64(buf))
	})
}

// windowSearch's call traps on the last window A opened: the longest search.
func windowSearch(windows int) ablationBoot {
	return pairOp(windows, func(e *cubicleos.Env, h cubicleos.Handle, buf cubicleos.Addr, _ int) {
		h.Call(e, uint64(buf))
		e.StoreByte(buf, 0)
	})
}

func libc(kind cubicle.Kind) ablationBoot {
	return func(tb testing.TB, mon *cubicleos.Monitor) (*cubicleos.Env, cubicle.ID, func(*cubicleos.Env, int)) {
		env, cubs := loadSystem(tb, mon,
			&cubicleos.Component{Name: "APP", Kind: cubicleos.KindIsolated},
			&cubicleos.Component{Name: "LIBC", Kind: kind,
				Exports: []cubicleos.ExportDecl{{Name: "memcpy", RegArgs: 3, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
					e.Memcpy(cubicleos.Addr(a[0]), cubicleos.Addr(a[1]), a[2])
					return nil
				}}}})
		var src, dst cubicleos.Addr
		app := cubs["APP"].ID
		h := mon.MustResolve(app, "LIBC", "memcpy")
		runAs(tb, mon, env, app, func(e *cubicleos.Env) {
			src, dst = e.HeapAlloc(cubicleos.PageSize), e.HeapAlloc(cubicleos.PageSize)
			for _, buf := range []cubicleos.Addr{src, dst} {
				if kind == cubicleos.KindIsolated { // the windows a shared LIBC never needs
					wid := e.WindowInit()
					e.WindowAdd(wid, buf, cubicleos.PageSize)
					e.WindowOpen(wid, e.CubicleOf("LIBC"))
				}
			}
		})
		return env, app, func(e *cubicleos.Env, i int) {
			e.StoreByte(src, byte(i)) // the producer dirties its buffer
			h.Call(e, uint64(dst), uint64(src), 512)
			e.StoreByte(dst, byte(i)) // the consumer's touch
		}
	}
}

// roundRobin's operation is a call from the monitor into one of n isolated
// cubicles, in turn.
func roundRobin(n int) ablationBoot {
	return func(tb testing.TB, mon *cubicleos.Monitor) (*cubicleos.Env, cubicle.ID, func(*cubicleos.Env, int)) {
		comps := make([]*cubicleos.Component, n)
		for i := range comps {
			name := fmt.Sprintf("C%02d", i)
			comps[i] = &cubicleos.Component{Name: name, Kind: cubicleos.KindIsolated,
				Exports: []cubicleos.ExportDecl{{Name: "touch_" + name, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
					buf := e.HeapAlloc(64)
					e.Memset(buf, 1, 64)
					e.HeapFree(buf)
					return nil
				}}}}
		}
		env, _ := loadSystem(tb, mon, comps...)
		handles := make([]cubicleos.Handle, n)
		for i, c := range comps {
			handles[i] = mon.MustResolve(cubicle.MonitorID, c.Name, c.Exports[0].Name)
		}
		return env, cubicle.MonitorID, func(e *cubicleos.Env, i int) { handles[i%n].Call(e) }
	}
}
