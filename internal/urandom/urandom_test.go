package urandom_test

import (
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/urandom"
)

func bootApp(t *testing.T, seed uint64) *boot.System {
	t.Helper()
	return boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Seed: seed,
		Extra: []*cubicle.Component{{
			Name: "APP", Kind: cubicle.KindIsolated,
			Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
		}}})
}

func TestDeterministicSequence(t *testing.T) {
	collect := func() []uint64 {
		s := bootApp(t, 42)
		var out []uint64
		err := s.RunAs("APP", func(e *cubicle.Env) {
			u64 := s.M.MustResolve(s.Cubs["APP"].ID, urandom.Name, "rand_u64")
			for i := 0; i < 8; i++ {
				out = append(out, u64.Call(e)[0])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at %d", i)
		}
	}
	varied := false
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("PRNG output constant")
	}
}

func TestFill(t *testing.T) {
	s := bootApp(t, 7)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		fill := s.M.MustResolve(s.Cubs["APP"].ID, urandom.Name, "rand_fill")
		buf := e.HeapAlloc(1000)
		fill.Call(e, uint64(buf), 1000)
		data := cubicletest.ReadBytes(e, buf, 1000)
		zeros := 0
		for _, b := range data {
			if b == 0 {
				zeros++
			}
		}
		if zeros > 100 {
			t.Errorf("fill left %d zero bytes of 1000", zeros)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedDeviceRunsAsCaller: RANDOM is a shared cubicle; filling a
// caller buffer needs no window and no TCB crossing.
func TestSharedDeviceRunsAsCaller(t *testing.T) {
	s := bootApp(t, 7)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		fill := s.M.MustResolve(s.Cubs["APP"].ID, urandom.Name, "rand_fill")
		buf := e.HeapAlloc(64)
		cross := s.M.Stats.CallsTotal
		fill.Call(e, uint64(buf), 64)
		if s.M.Stats.CallsTotal != cross {
			t.Error("random fill crossed the TCB")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
