package ulibc_test

import (
	"bytes"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/ulibc"
	"cubicleos/internal/vm"
)

func bootApp(t *testing.T) *boot.System {
	t.Helper()
	return boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{{
		Name: "APP", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
}

func TestMemcpyMemset(t *testing.T) {
	s := bootApp(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		c := ulibc.NewClient(s.M, s.Cubs["APP"].ID)
		a := e.HeapAlloc(64)
		b := e.HeapAlloc(64)
		c.Memset(e, a, 0xAB, 64)
		c.Memcpy(e, b, a, 64)
		if got := cubicletest.ReadBytes(e, b, 64); !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 64)) {
			t.Errorf("memcpy of a memset buffer = % x", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedCubicleNoTCB: LIBC calls do not count as cross-cubicle calls
// and take no trampoline cost.
func TestSharedCubicleNoTCB(t *testing.T) {
	s := bootApp(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		c := ulibc.NewClient(s.M, s.Cubs["APP"].ID)
		a := e.HeapAlloc(vm.PageSize)
		e.Memset(a, 1, vm.PageSize) // warm the page mapping
		cross := s.M.Stats.CallsTotal
		shared := s.M.Stats.SharedCalls
		wrp := s.M.Stats.WRPKRUs
		c.Memset(e, a, 2, 64)
		if s.M.Stats.CallsTotal != cross {
			t.Error("LIBC call crossed the TCB")
		}
		if s.M.Stats.SharedCalls != shared+1 {
			t.Error("LIBC call not counted as shared")
		}
		if s.M.Stats.WRPKRUs != wrp {
			t.Error("LIBC call executed wrpkru")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
