// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the NGINX latency curve (Figure 7), the SQLite
// query-time ablation (Figure 6), the cubicle call-count graphs (Figures
// 5 and 8), and the partitioning comparison against Genode and
// microkernels (Figures 9 and 10).
package experiments

import (
	"fmt"
	"strconv"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/plat"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/uktime"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// UnikraftWorkScale is re-exported from the boot package for the harness.
const UnikraftWorkScale = boot.UnikraftWorkScale

// DBCacheCap is the page-cache size used by all SQLite experiments.
const DBCacheCap = 128

// SQLiteTarget is a CubicleOS SQLite deployment: the Figure 8 layout with
// seven isolated cubicles (SQLITE, VFSCORE, RAMFS, PLAT, ALLOC, TIME,
// BOOT) plus the shared LIBC and RANDOM.
type SQLiteTarget struct {
	Sys    *boot.System
	DB     *sqldb.DB
	Runner *speedtest.Runner

	time *uktime.Client
	plat *plat.Client
	log  vm.Addr
	line []byte // RunQuery's log line, built in place
}

// component returns an isolated component exporting one entry point that
// does nothing: SQLITE (SQLite and the speedtest1 driver, as in the paper)
// or Figure 8's BOOT, boot-time glue that probes the platform and primes
// the allocator.
func component(name, entry string) *cubicle.Component {
	return &cubicle.Component{Name: name, Kind: cubicle.KindIsolated, Exports: []cubicle.ExportDecl{
		{Name: entry, Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}}}
}

// NewSQLiteTarget boots a CubicleOS SQLite deployment in the given mode.
// groups fuses components (nil = fully separated, the CubicleOS-4-style
// deployment of Figure 8; {"VFSCORE","RAMFS"→"CORE"} gives CubicleOS-3).
// workScale scales the engine's modelled compute (see UnikraftWorkScale).
func NewSQLiteTarget(mode cubicle.Mode, groups map[string]string, size int, workScale float64) (*SQLiteTarget, error) {
	t := &SQLiteTarget{}
	sys, err := boot.NewFS(boot.Config{
		Mode:   mode,
		Groups: groups,
		Extra:  []*cubicle.Component{component("SQLITE", "sqlite_main"), component("BOOT", "boot_main")},
	})
	if err != nil {
		return nil, err
	}
	t.Sys = sys
	if workScale > 0 {
		sys.M.Clock.SetWorkScale(workScale)
	}

	// Boot-time activity from the BOOT cubicle (the Figure 8 BOOT edges).
	if err := sys.RunAs("BOOT", func(e *cubicle.Env) {
		pc := plat.NewClient(sys.M, sys.Cubs["BOOT"].ID)
		pc.BootProbe(e)
		tc := uktime.NewClient(sys.M, sys.Cubs["BOOT"].ID)
		tc.MonotonicNs(e)
		ac := ualloc.NewClient(sys.M, sys.Cubs["BOOT"].ID)
		scratch := ac.Malloc(e, vm.PageSize)
		ac.Free(e, scratch)
	}); err != nil {
		return nil, err
	}

	// Application initialisation inside the SQLITE cubicle.
	err = sys.RunAs("SQLITE", func(e *cubicle.Env) {
		sqliteID := sys.Cubs["SQLITE"].ID
		vfs := vfscore.NewClient(sys.M, sqliteID)
		ioBuf, wid := openIO(e, vfs)
		// Coarse-grained arena from ALLOC (Figure 8: "ALLOC is used only
		// for coarse-grained allocations").
		ac := ualloc.NewClient(sys.M, sqliteID)
		ac.Malloc(e, 8*vm.PageSize)
		db, err := sqldb.Open(e, vfs, "/speedtest.db", ioBuf, DBCacheCap)
		if err != nil {
			panic(&cubicle.APIError{Cubicle: sqliteID, Op: "open", Reason: err.Error()})
		}
		// The port's window discipline: open/close the I/O window around
		// every file I/O call (Figure 4 style).
		db.Pager().SetWindowDiscipline(wid, e.CubicleOf(vfscore.Name), e.CubicleOf(ramfs.Name))
		t.DB = db
		t.Runner = speedtest.New(db, speedtest.Config{Size: size})
		t.time = uktime.NewClient(sys.M, sqliteID)
		t.plat = plat.NewClient(sys.M, sqliteID)
		t.log = e.HeapAlloc(256)
		lwid := e.WindowInit()
		e.WindowAdd(lwid, t.log, 256)
		e.WindowOpen(lwid, e.CubicleOf(plat.Name))
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// openIO sets up the SQLITE side of the database's file I/O: vfs's
// buffers, and the I/O buffer — page-aligned, windowed to the FS stack —
// with the window it is in.
func openIO(e *cubicle.Env, vfs *vfscore.Client) (vm.Addr, cubicle.WID) {
	vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
	ioBuf := e.HeapAlloc(sqldb.PageSize)
	wid := e.WindowInit()
	e.WindowAdd(wid, ioBuf, sqldb.PageSize)
	e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
	e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
	return ioBuf, wid
}

// Setup prepares the speedtest schema and data.
func (t *SQLiteTarget) Setup() error {
	return t.Sys.RunAs("SQLITE", func(e *cubicle.Env) {
		if err := t.Runner.Setup(); err != nil {
			panic(&cubicle.APIError{Cubicle: e.Cubicle(), Op: "setup", Reason: err.Error()})
		}
	})
}

// RunQuery executes one speedtest query inside the SQLITE cubicle and
// returns the virtual cycles it consumed. Per query the driver also
// timestamps via TIME and logs a line via PLAT, as speedtest1 does.
func (t *SQLiteTarget) RunQuery(id int) (uint64, error) {
	start := t.Sys.M.Clock.Cycles()
	err := t.Sys.RunAs("SQLITE", func(e *cubicle.Env) {
		t.time.MonotonicNs(e)
		if err := t.Runner.Run(id); err != nil {
			panic(&cubicle.APIError{Cubicle: e.Cubicle(), Op: "query", Reason: err.Error()})
		}
		t.line = append(strconv.AppendInt(append(t.line[:0], "speedtest1 "...), int64(id), 10), " ok\n"...)
		e.Write(t.log, t.line)
		t.plat.ConsoleWrite(e, t.log, uint64(len(t.line)))
	})
	if err != nil {
		return 0, err
	}
	return t.Sys.M.Clock.Cycles() - start, nil
}

// RunAll runs every query in ID order and returns per-query cycles.
func (t *SQLiteTarget) RunAll() ([]speedtest.Measurement, error) {
	if err := t.Setup(); err != nil {
		return nil, err
	}
	out := make([]speedtest.Measurement, 0, len(speedtest.QueryIDs))
	for _, id := range speedtest.QueryIDs {
		c, err := t.RunQuery(id)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", id, err)
		}
		out = append(out, speedtest.Measurement{ID: id, Cycles: c, GroupA: speedtest.InGroupA(id)})
	}
	return out, nil
}
