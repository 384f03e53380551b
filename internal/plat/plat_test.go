package plat_test

import (
	"fmt"
	"strings"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/plat"
)

func bootApp(t *testing.T) *boot.System {
	t.Helper()
	return boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{{
		Name: "APP", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
}

func TestConsoleWrite(t *testing.T) {
	s := bootApp(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		c := plat.NewClient(s.M, s.Cubs["APP"].ID)
		msg := e.HeapAlloc(64)
		e.Write(msg, []byte("hello from cubicle\n"))
		// The console path reads the app's buffer from PLAT's cubicle:
		// the buffer needs a window.
		wid := e.WindowInit()
		e.WindowAdd(wid, msg, 64)
		e.WindowOpen(wid, e.CubicleOf(plat.Name))
		c.ConsoleWrite(e, msg, 19)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Plat.ConsoleOutput(); got != "hello from cubicle\n" {
		t.Errorf("console output %q", got)
	}
}

// TestConsoleKeepsABoundedScrollback: a server logs a line per request for
// as long as it runs, so the console keeps a tail, not a history.
func TestConsoleKeepsABoundedScrollback(t *testing.T) {
	s := bootApp(t)
	const line, writes = 64, 1 << 14 // 1 MiB in all
	err := s.RunAs("APP", func(e *cubicle.Env) {
		c := plat.NewClient(s.M, s.Cubs["APP"].ID)
		msg := e.HeapAlloc(line)
		wid := e.WindowInit()
		e.WindowAdd(wid, msg, line)
		e.WindowOpen(wid, e.CubicleOf(plat.Name))
		for i := 0; i < writes; i++ {
			e.Write(msg, []byte(fmt.Sprintf("%062d\n", i)))
			c.ConsoleWrite(e, msg, 63)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := s.Plat.ConsoleOutput()
	if len(got) < 64<<10 || len(got) > 128<<10 {
		t.Errorf("console holds %d bytes after 1 MiB of writes, want 64 to 128 KiB", len(got))
	}
	if last := fmt.Sprintf("%062d\n", writes-1); !strings.HasSuffix(got, last) {
		t.Errorf("console does not end with the last line written: %q", got[len(got)-70:])
	}
}

func TestConsoleWithoutWindowFaults(t *testing.T) {
	s := bootApp(t)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		c := plat.NewClient(s.M, s.Cubs["APP"].ID)
		msg := e.HeapAlloc(64)
		e.Write(msg, []byte("x"))
		if fault := cubicle.Catch(func() { c.ConsoleWrite(e, msg, 1) }); fault == nil {
			t.Error("PLAT read the buffer without a window")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
