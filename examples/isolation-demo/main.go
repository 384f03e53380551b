// Isolation-demo: the threat-model scenarios of the paper (§2.3, §5.4,
// §5.5) demonstrated live.
//
//  1. A malicious component reads another cubicle's secret — denied.
//  2. A component image containing a smuggled wrpkru/syscall instruction
//     is refused by the loader's binary scan.
//  3. A tampered trampoline descriptor fails builder-signature checking.
//  4. Control transfers that bypass the guard-page entry points fault
//     (CFI).
//  5. Window revocation actually revokes (causal tag consistency).
//
// Run with: go run ./examples/isolation-demo
package main

import (
	"fmt"
	"log"

	"cubicleos"
	"cubicleos/internal/isa"
)

func main() {
	fmt.Println("CubicleOS isolation demo")
	fmt.Println("========================")

	// --- Scenario 2 first: the loader refuses bad code outright. --------
	b := cubicleos.NewBuilder()
	b.MustAdd(&cubicleos.Component{
		Name: "EVIL", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{{Name: "evil_main",
			Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}},
		// The image smuggles a wrpkru instruction into its code section.
		Image: isa.Synthesize("EVIL", []string{"evil_main"},
			isa.SynthOptions{InjectForbidden: isa.OpWRPKRU, InjectAt: -1}),
	})
	si, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	m := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
	if _, err := cubicleos.NewLoader(m).LoadSystem(si, nil); err != nil {
		fmt.Printf("\n[2] loader scan: %v\n", err)
	} else {
		log.Fatal("BUG: wrpkru-carrying image was loaded")
	}

	// --- A clean system for the remaining scenarios. --------------------
	b = cubicleos.NewBuilder()
	b.MustAdd(&cubicleos.Component{
		Name: "VAULT", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{
			{Name: "vault_init", Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
				secret := e.HeapAlloc(32)
				e.Write(secret, []byte("TLS-PRIVATE-KEY-0123456789abcdef"))
				return e.Ret(uint64(secret))
			}},
		},
	})
	b.MustAdd(&cubicleos.Component{
		Name: "INTRUDER", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{
			{Name: "intrude", RegArgs: 1, Fn: func(e *cubicleos.Env, a []uint64) []uint64 {
				// Attempt to read the vault's secret directly.
				return e.Ret(uint64(e.LoadByte(cubicleos.Addr(a[0]))))
			}},
		},
	})
	b.MustAdd(&cubicleos.Component{
		Name: "MULE", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{{Name: "mule_main",
			Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}},
	})
	si, err = b.Build()
	if err != nil {
		log.Fatal(err)
	}
	// Tamper with a trampoline signature on a second image to show the
	// loader refusing it (scenario 3).
	b2 := cubicleos.NewBuilder()
	b2.MustAdd(&cubicleos.Component{Name: "X", Kind: cubicleos.KindIsolated,
		Exports: []cubicleos.ExportDecl{{Name: "x", Fn: func(e *cubicleos.Env, a []uint64) []uint64 { return nil }}}})
	si2, _ := b2.Build()
	si2.TamperSignature("X", "x")
	m2 := cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
	if _, err := cubicleos.NewLoader(m2).LoadSystem(si2, nil); err != nil {
		fmt.Printf("[3] builder signature: %v\n", err)
	} else {
		log.Fatal("BUG: tampered descriptor was accepted")
	}

	m = cubicleos.NewMonitor(cubicleos.ModeFull, cubicleos.DefaultCosts())
	cubs, err := cubicleos.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		log.Fatal(err)
	}
	env := m.NewEnv(m.NewThread())

	var secret cubicleos.Addr
	if err := m.RunAs(env, cubs["VAULT"].ID, func(e *cubicleos.Env) {
		init := m.MustResolve(e.Cubicle(), "VAULT", "vault_init")
		secret = cubicleos.Addr(init.Call(e)[0])
	}); err != nil {
		log.Fatal(err)
	}

	// --- Scenario 1: cross-cubicle secret read. --------------------------
	err = m.RunAs(env, cubs["INTRUDER"].ID, func(e *cubicleos.Env) {
		if fault := cubicleos.Catch(func() { e.LoadByte(secret) }); fault != nil {
			fmt.Printf("[1] spatial isolation: %v\n", fault)
		} else {
			log.Fatal("BUG: intruder read the secret")
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Scenario 4: CFI — handle misuse and guard-page probing. ---------
	// intrude is resolved for VAULT (its guard page lives in VAULT's
	// cubicle); MULE getting hold of the handle and calling through it
	// models a jump into another cubicle's guard page.
	intrude := m.MustResolve(cubs["VAULT"].ID, "INTRUDER", "intrude")
	err = m.RunAs(env, cubs["MULE"].ID, func(e *cubicleos.Env) {
		if fault := cubicleos.Catch(func() { intrude.Call(e, uint64(secret)) }); fault != nil {
			fmt.Printf("[4] CFI (foreign guard page): %v\n", fault)
		} else {
			log.Fatal("BUG: foreign handle call succeeded")
		}
		if _, err := m.Resolve(e.Cubicle(), "VAULT", "vault_internal"); err != nil {
			fmt.Printf("[4] CFI (non-exported symbol): %v\n", err)
		} else {
			log.Fatal("BUG: resolved a private symbol")
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- Scenario 5: window revocation. ----------------------------------
	err = m.RunAs(env, cubs["VAULT"].ID, func(e *cubicleos.Env) {
		intrID := e.CubicleOf("INTRUDER")
		wid := e.WindowInit()
		e.WindowAdd(wid, secret, 32)
		e.WindowOpen(wid, intrID)
		h := m.MustResolve(e.Cubicle(), "INTRUDER", "intrude")
		got := h.Call(e, uint64(secret))[0]
		fmt.Printf("[5] window open:   intruder legitimately reads byte %#x ('%c')\n", got, byte(got))
		e.WindowClose(wid, intrID)
		_ = e.LoadByte(secret) // owner touch retags the page back
		if fault := cubicleos.Catch(func() { h.Call(e, uint64(secret)) }); fault != nil {
			fmt.Printf("[5] window closed: %v\n", fault)
		} else {
			log.Fatal("BUG: access after revocation succeeded")
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nall five scenarios contained; %d denied faults recorded by the monitor\n",
		m.Stats.DeniedFaults)
}
