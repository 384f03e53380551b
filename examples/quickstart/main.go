// Quickstart: the paper's Figure 1/2 running example as a program.
//
// Two isolated components, FOO and BAR, run in separate cubicles. FOO
// owns a buffer; BAR exports bar(ptr, idx) which writes into it. Without
// a window the call faults; with a window it works zero-copy; after the
// window closes and FOO touches the buffer again, BAR's access faults
// once more.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cubicleos"
)

func main() {
	// 1. Describe the components to the trusted builder.
	b := cubicleos.NewBuilder()
	b.MustAdd(&cubicleos.Component{
		Name: "FOO", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{
			{Name: "foo_main", Fn: func(e *cubicleos.Env, args []uint64) []uint64 { return nil }},
		},
	})
	b.MustAdd(&cubicleos.Component{
		Name: "BAR", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{
			// bar(ptr, a): ptr[a] = 0xAA — exactly Figure 1.
			{Name: "bar", RegArgs: 2, Fn: func(e *cubicleos.Env, args []uint64) []uint64 {
				e.StoreByte(cubicleos.Addr(args[0]).Add(args[1]), 0xAA)
				return e.Ret(1)
			}},
		},
	})
	si, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Load the system: the loader scans code, assigns MPK keys,
	// installs trampolines.
	m := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
	cubs, err := cubicleos.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded: FOO=cubicle %d (key %d), BAR=cubicle %d (key %d)\n",
		cubs["FOO"].ID, cubs["FOO"].Key, cubs["BAR"].ID, cubs["BAR"].Key)

	env := m.NewEnv(m.NewThread())

	// 3. Enter FOO and interact with BAR across the isolation boundary.
	err = m.RunAs(env, cubs["FOO"].ID, func(e *cubicleos.Env) {
		array := e.HeapAlloc(10) // char array[10]
		barID := e.CubicleOf("BAR")
		bar := m.MustResolve(e.Cubicle(), "BAR", "bar")

		// Without a window: the very same call faults.
		if fault := cubicleos.Catch(func() { bar.Call(e, uint64(array), 5) }); fault != nil {
			fmt.Printf("without a window: %v\n", fault)
		}

		// Figure 1c: open a window, call, close.
		wid := e.WindowInit()
		e.WindowAdd(wid, array, 10)
		e.WindowOpen(wid, barID)
		bar.Call(e, uint64(array), 5)
		e.WindowClose(wid, barID)
		fmt.Printf("with a window:    array[5] = %#x (zero-copy write by BAR)\n",
			e.LoadByte(array.Add(5)))

		// Causal tag consistency: once FOO touches the page again, BAR's
		// next access faults.
		if fault := cubicleos.Catch(func() { bar.Call(e, uint64(array), 6) }); fault != nil {
			fmt.Printf("after closing:    %v\n", fault)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	st := m.Stats
	fmt.Printf("\nstats: %d cross-cubicle calls, %d traps, %d page retags, %d wrpkru, %d cycles (%.2f us at 2.2 GHz)\n",
		st.CallsTotal, st.Faults, st.Retags, st.WRPKRUs,
		m.Clock.Cycles(), float64(m.Clock.Duration().Nanoseconds())/1000)
}
