package ukernel_test

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/sqldb"
	"cubicleos/internal/ukernel"
	"cubicleos/internal/vfscore"
)

func appComponent() *cubicle.Component {
	return &cubicle.Component{
		Name: "SQLITE", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "sqlite_main",
			Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}
}

// runWorkload opens a DB through the deployment's VFS and performs a
// fixed mix of statements, returning consumed cycles.
func runWorkload(t *testing.T, sys interface {
	RunAs(string, func(e *cubicle.Env)) error
}, vfs *vfscore.Client, clock interface{ Cycles() uint64 }) uint64 {
	t.Helper()
	start := clock.Cycles()
	err := sys.RunAs("SQLITE", func(e *cubicle.Env) {
		vfs.InitBuffers(e, e.CubicleOf("RAMFS"))
		ioBuf := e.HeapAlloc(sqldb.PageSize)
		db, err := sqldb.Open(e, vfs, "/uk.db", ioBuf, 32)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
		mustExec(t, db, "BEGIN")
		for i := 0; i < 200; i++ {
			mustExec(t, db, "INSERT INTO t VALUES ("+itoa(i)+", 'value')")
		}
		mustExec(t, db, "COMMIT")
		for i := 0; i < 50; i++ {
			mustExec(t, db, "UPDATE t SET v = 'x' WHERE id = "+itoa(i*3))
		}
		mustExec(t, db, "SELECT count(*) FROM t")
	})
	if err != nil {
		t.Fatal(err)
	}
	return clock.Cycles() - start
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestSeparationCostsMoreOnEveryKernel(t *testing.T) {
	for _, model := range ukernel.Models {
		d3, err := ukernel.NewSQLite(model, 3, appComponent())
		if err != nil {
			t.Fatal(err)
		}
		c3 := runWorkload(t, d3.Sys, d3.VFS, d3.Sys.M.Clock)
		d4, err := ukernel.NewSQLite(model, 4, appComponent())
		if err != nil {
			t.Fatal(err)
		}
		c4 := runWorkload(t, d4.Sys, d4.VFS, d4.Sys.M.Clock)
		if c4 <= c3 {
			t.Errorf("%s: 4 compartments (%d) not more expensive than 3 (%d)", model.Name, c4, c3)
		}
		if d4.Stats.Calls <= d3.Stats.Calls {
			t.Errorf("%s: separation did not add IPC calls", model.Name)
		}
		if d4.Stats.BytesCopied == 0 {
			t.Errorf("%s: message interface copied no payload bytes", model.Name)
		}
	}
}

func TestKernelOrdering(t *testing.T) {
	// Per-call costs must order as in Figure 10b: Genode/Linux most
	// expensive backend, Fiasco.OC cheapest.
	costs := map[string]uint64{}
	for _, model := range ukernel.Models {
		d, err := ukernel.NewSQLite(model, 4, appComponent())
		if err != nil {
			t.Fatal(err)
		}
		costs[model.Name] = runWorkload(t, d.Sys, d.VFS, d.Sys.M.Clock)
	}
	if !(costs["Genode/Linux"] > costs["SeL4"] && costs["SeL4"] > costs["NOVA"] && costs["NOVA"] > costs["Fiasco.OC"]) {
		t.Errorf("kernel cost ordering wrong: %v", costs)
	}
}

func TestLinuxBaselineIsCheapest(t *testing.T) {
	lx, err := ukernel.NewLinuxSQLite(appComponent())
	if err != nil {
		t.Fatal(err)
	}
	cl := runWorkload(t, lx.Sys, lx.VFS, lx.Sys.M.Clock)
	if lx.Syscalls == 0 {
		t.Error("Linux baseline made no syscalls")
	}
	d, err := ukernel.NewSQLite(ukernel.FiascoOC, 3, appComponent())
	if err != nil {
		t.Fatal(err)
	}
	ck := runWorkload(t, d.Sys, d.VFS, d.Sys.M.Clock)
	if cl >= ck {
		t.Errorf("Linux (%d) not cheaper than Fiasco-3 (%d)", cl, ck)
	}
}

func TestInvalidComponentCount(t *testing.T) {
	if _, err := ukernel.NewSQLite(ukernel.SeL4, 5, appComponent()); err == nil {
		t.Fatal("5-compartment deployment accepted (Figure 9 defines 3 and 4)")
	}
}

func TestWorkloadCorrectUnderIPC(t *testing.T) {
	// The IPC wrappers must not alter results, only cost.
	d, err := ukernel.NewSQLite(ukernel.SeL4, 4, appComponent())
	if err != nil {
		t.Fatal(err)
	}
	err = d.Sys.RunAs("SQLITE", func(e *cubicle.Env) {
		d.VFS.InitBuffers(e, e.CubicleOf("RAMFS"))
		ioBuf := e.HeapAlloc(sqldb.PageSize)
		db, err := sqldb.Open(e, d.VFS, "/c.db", ioBuf, 16)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE t (a INTEGER)")
		mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
		r := mustExec(t, db, "SELECT sum(a) FROM t")
		if r.Rows[0][0].I != 6 {
			t.Errorf("sum = %v", r.Rows[0][0])
		}
		if res := mustExec(t, db, "PRAGMA integrity_check"); res.Rows[0][0].S != "ok" {
			t.Errorf("integrity: %v", res.Rows)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mustExec runs one statement and fails the test on an error.
func mustExec(t *testing.T, db *sqldb.DB, sql string) *sqldb.Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
