package speedtest_test

import (
	"fmt"
	"strings"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
	"cubicleos/internal/vfscore"
)

// newRunner boots a minimal system and opens a database for the workload.
func newRunner(t *testing.T, size int) (*boot.System, *speedtest.Runner) {
	t.Helper()
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeUnikraft, Extra: []*cubicle.Component{{
		Name: "SQLITE", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "sqlite_main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	var r *speedtest.Runner
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		vfs := vfscore.NewClient(s.M, s.Cubs["SQLITE"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		ioBuf := e.HeapAlloc(sqldb.PageSize)
		db, err := sqldb.Open(e, vfs, "/st.db", ioBuf, 128)
		if err != nil {
			t.Fatal(err)
		}
		r = speedtest.New(db, speedtest.Config{Size: size})
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestEveryQueryRuns(t *testing.T) {
	s, r := newRunner(t, 5)
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		if err := r.Setup(); err != nil {
			t.Fatal(err)
		}
		for _, id := range speedtest.QueryIDs {
			if err := r.Run(id); err != nil {
				t.Fatalf("query %d (%s): %v", id, speedtest.Title(id), err)
			}
		}
		// The database must still be structurally sound afterwards.
		res, err := r.DB.Exec("PRAGMA integrity_check")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].S != "ok" {
			t.Fatalf("integrity after full schedule: %v", res.Rows)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatementsMatchSprintf: every statement of Setup and of every query
// at size 10 is, byte for byte, what fmt.Sprintf and the fmt-based pad made
// of the same format and arguments.
func TestStatementsMatchSprintf(t *testing.T) {
	s, r := newRunner(t, 10)
	verbs := map[string]int{}
	r.OnExec(func(format string, args []any, sql string) {
		if want := speedtest.SprintfStatement(format, args); sql != want {
			t.Fatalf("format %q:\n got %q\nwant %q", format, sql, want)
		}
		for _, v := range []string{"%d", "%s", "%%"} {
			verbs[v] += strings.Count(format, v)
		}
	})
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		if err := r.Setup(); err != nil {
			t.Fatal(err)
		}
		for _, id := range speedtest.QueryIDs {
			if err := r.Run(id); err != nil {
				t.Fatalf("query %d: %v", id, err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if verbs["%d"] == 0 || verbs["%s"] == 0 || verbs["%%"] == 0 {
		t.Errorf("premise broken: verbs seen %v", verbs)
	}
}

func TestRunAllMeasures(t *testing.T) {
	s, r := newRunner(t, 5)
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		ms, err := r.RunAll(s.M.Clock.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(speedtest.QueryIDs) {
			t.Fatalf("measured %d queries", len(ms))
		}
		for _, m := range ms {
			if m.Cycles == 0 {
				t.Errorf("query %d measured 0 cycles", m.ID)
			}
			if m.GroupA != speedtest.InGroupA(m.ID) {
				t.Errorf("query %d group flag wrong", m.ID)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupsMatchPaper(t *testing.T) {
	// The paper's group A list: 100–120, 140–161, 180, 190, 230, 250,
	// 300, 320, 400, 500, 520, 990.
	wantA := map[int]bool{100: true, 110: true, 120: true, 140: true, 142: true,
		145: true, 150: true, 160: true, 161: true, 180: true, 190: true,
		230: true, 250: true, 300: true, 320: true, 400: true, 500: true,
		520: true, 990: true}
	for _, id := range speedtest.QueryIDs {
		if speedtest.InGroupA(id) != wantA[id] {
			t.Errorf("query %d group classification disagrees with the paper", id)
		}
		if speedtest.Title(id) == "" {
			t.Errorf("query %d has no title", id)
		}
	}
	if len(speedtest.QueryIDs) != 31 {
		t.Errorf("Figure 6 has 31 query IDs, got %d", len(speedtest.QueryIDs))
	}
}

func TestUnknownQueryFails(t *testing.T) {
	s, r := newRunner(t, 5)
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		if err := r.Setup(); err != nil {
			t.Fatal(err)
		}
		if err := r.Run(999); err == nil {
			t.Error("unknown query ID accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpeedtestStreamPinned pins a size-5 pass in Unikraft mode: its
// stream, clock and counters from the first statement on, with every
// query's cycles folded in.
func TestSpeedtestStreamPinned(t *testing.T) {
	s, r := newRunner(t, 5)
	s.M.EnableTracing(64).StartDigest()
	var ms []speedtest.Measurement
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		var err error
		if ms, err = r.RunAll(s.M.Clock.Cycles); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = uint64(0x40546bec558894da)
	if got := cubicletest.StreamDigest(s.M, fmt.Appendf(nil, "%v", ms)); got != want {
		t.Errorf("speedtest digest %#x, want %#x", got, want)
	}
}
