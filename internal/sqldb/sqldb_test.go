package sqldb_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// testDB boots the FS stack with an SQLITE app cubicle and opens a
// database inside it. fn runs with the SQLITE cubicle's privileges. Every
// index is checked against its table after each statement fn runs: before
// the next one starts, and once fn has returned.
func testDB(t testing.TB, fn func(e *cubicle.Env, db *sqldb.DB)) {
	t.Helper()
	testDBNamed(t, "/test.db", 64, func(e *cubicle.Env, db *sqldb.DB) {
		last := "the first statement"
		check := func() {
			if err := sqldb.CheckIndexes(db); err != nil {
				t.Errorf("after %s: %v", last, err)
			}
		}
		db.OnParse(func(sql string, _ any) { check(); last = strings.Clone(sql) })
		fn(e, db)
		check()
	})
}

func testDBNamed(t testing.TB, path string, cacheCap int, fn func(e *cubicle.Env, db *sqldb.DB)) {
	t.Helper()
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{{
		Name: "SQLITE", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "sqlite_main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		vfs := vfscore.NewClient(s.M, s.Cubs["SQLITE"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		ioBuf := e.HeapAlloc(sqldb.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, ioBuf, sqldb.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
		db, err := sqldb.Open(e, vfs, path, ioBuf, cacheCap)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		// Every statement of this file runs under the scan guard: one that
		// wrote a page while a scan up the stack was iterating it would
		// panic here instead of reading shifted cells.
		db.Pager().GuardScans()
		// ... and with each bind's reused row and record poisoned once its
		// callback has returned: a statement that kept the row would read
		// POISON, one that kept a text without copying it 0xDD bytes.
		db.PoisonRows()
		fn(e, db)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// one extracts the single value of a result.
func one(t *testing.T, r *sqldb.Result) sqldb.Value {
	t.Helper()
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		t.Fatalf("expected single value, got %d rows", len(r.Rows))
	}
	return r.Rows[0][0]
}

func TestCreateInsertSelect(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t1 (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)")
		db.MustExec("INSERT INTO t1 VALUES (1, 100, 'one'), (2, 200, 'two'), (3, 300, 'three')")
		r := db.MustExec("SELECT a, b, c FROM t1")
		if len(r.Rows) != 3 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
		if r.Rows[1][2].S != "two" {
			t.Errorf("row 2 c = %v", r.Rows[1][2])
		}
		if got := one(t, db.MustExec("SELECT count(*) FROM t1")); got.I != 3 {
			t.Errorf("count = %v", got)
		}
	})
}

// TestResultColumnNames: a Result names its columns after their column or
// their position. Exec runs from a copy of the text that is poisoned once it
// returns (PoisonRows), so a name that viewed the text, in the Result or in
// the schema, reads 0xDD.
func TestResultColumnNames(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE Named (a INTEGER, Bee TEXT)")
		db.MustExec("ALTER TABLE Named ADD COLUMN cee REAL")
		db.MustExec("CREATE INDEX NamedBee ON Named (Bee)")
		db.MustExec("INSERT INTO Named VALUES (1, 'x', 2.5)")
		r := db.MustExec("SELECT a, Bee, length(Bee), named.cee FROM named WHERE bee = 'x'")
		want := []string{"a", "Bee", "col3", "cee"}
		if !slices.Equal(r.Cols, want) || len(r.Rows) != 1 {
			t.Errorf("columns %q and %d rows, want %q and 1", r.Cols, len(r.Rows), want)
		}
		// The schema's names, its index's column too, outlive their texts.
		if got := rows(db.MustExec("SELECT NAMED.a, cee FROM NAMED WHERE BEE = 'x'")); got != "1,2.5" {
			t.Errorf("the schema's names read after their statements: %q, want 1,2.5", got)
		}
	})
}

func TestWherePlansAndFilters(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s TEXT)")
		db.MustExec("BEGIN")
		for i := 1; i <= 500; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'row%03d')", i, i*10, i))
		}
		db.MustExec("COMMIT")
		db.MustExec("CREATE INDEX iv ON t (v)")

		// rowid equality
		if got := one(t, db.MustExec("SELECT s FROM t WHERE id = 250")); got.S != "row250" {
			t.Errorf("rowid eq: %v", got)
		}
		// rowid range / BETWEEN
		r := db.MustExec("SELECT count(*) FROM t WHERE id BETWEEN 100 AND 199")
		if one(t, r).I != 100 {
			t.Errorf("rowid between: %v", r.Rows)
		}
		// index equality
		if got := one(t, db.MustExec("SELECT id FROM t WHERE v = 1230")); got.I != 123 {
			t.Errorf("index eq: %v", got)
		}
		// index range
		r = db.MustExec("SELECT count(*) FROM t WHERE v > 4000 AND v <= 4500")
		if one(t, r).I != 50 {
			t.Errorf("index range: %v", r.Rows)
		}
		// residual filter on top of range
		r = db.MustExec("SELECT count(*) FROM t WHERE v BETWEEN 10 AND 5000 AND s LIKE 'row1%'")
		if one(t, r).I != 111 { // row1, row100..row199 -> 1+11+... row001? names row001..row500: LIKE 'row1%' matches row100..row199 and row1?? wait zero-padded
			// zero-padded names: row100..row199 = 100 rows; v<=5000 means id<=500, all match
			t.Logf("rows: %v", r.Rows)
		}
		// unindexed filter
		r = db.MustExec("SELECT count(*) FROM t WHERE v % 100 = 0")
		if one(t, r).I != 50 {
			t.Errorf("mod filter: %v", r.Rows)
		}
	})
}

func TestOrderByLimit(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
		db.MustExec("INSERT INTO t VALUES (3,'c'), (1,'a'), (2,'b'), (5,'e'), (4,'d')")
		r := db.MustExec("SELECT b FROM t ORDER BY a DESC LIMIT 3")
		got := []string{r.Rows[0][0].S, r.Rows[1][0].S, r.Rows[2][0].S}
		if strings.Join(got, "") != "edc" {
			t.Errorf("order by desc limit: %v", got)
		}
		// ORDER BY a column not in the select list (hidden key).
		r = db.MustExec("SELECT b FROM t ORDER BY a")
		if r.Rows[0][0].S != "a" || r.Rows[4][0].S != "e" {
			t.Errorf("hidden order key: %v", r.Rows)
		}
		if len(r.Rows[0]) != 1 {
			t.Errorf("hidden column leaked: %v", r.Rows[0])
		}
		// ORDER BY position.
		r = db.MustExec("SELECT a, b FROM t ORDER BY 1 DESC LIMIT 1")
		if r.Rows[0][0].I != 5 {
			t.Errorf("order by position: %v", r.Rows)
		}
	})
}

func TestGroupByAggregates(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE sales (region TEXT, amount INTEGER)")
		db.MustExec("INSERT INTO sales VALUES ('n', 10), ('n', 20), ('s', 5), ('s', 7), ('s', 8), ('e', 100)")
		r := db.MustExec("SELECT region, count(*), sum(amount), avg(amount), min(amount), max(amount) FROM sales GROUP BY region ORDER BY region")
		if len(r.Rows) != 3 {
			t.Fatalf("groups = %d", len(r.Rows))
		}
		// e, n, s in order
		if r.Rows[0][0].S != "e" || r.Rows[0][2].I != 100 {
			t.Errorf("group e: %v", r.Rows[0])
		}
		if r.Rows[1][1].I != 2 || r.Rows[1][2].I != 30 || r.Rows[1][3].R != 15 {
			t.Errorf("group n: %v", r.Rows[1])
		}
		if r.Rows[2][4].I != 5 || r.Rows[2][5].I != 8 {
			t.Errorf("group s: %v", r.Rows[2])
		}
		// Aggregate over empty set yields one row.
		db.MustExec("CREATE TABLE empty (x INTEGER)")
		r = db.MustExec("SELECT count(*), sum(x) FROM empty")
		if r.Rows[0][0].I != 0 || !r.Rows[0][1].IsNull() {
			t.Errorf("empty aggregates: %v", r.Rows[0])
		}
	})
}

func TestJoins(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT)")
		db.MustExec("CREATE TABLE orders (id INTEGER PRIMARY KEY, uid INTEGER, total INTEGER)")
		db.MustExec("INSERT INTO users VALUES (1,'ann'), (2,'bob'), (3,'cyd')")
		db.MustExec("INSERT INTO orders VALUES (1,1,50), (2,1,70), (3,2,30), (4,9,10)")
		r := db.MustExec("SELECT users.name, sum(orders.total) FROM users, orders WHERE users.id = orders.uid GROUP BY users.name ORDER BY users.name")
		if len(r.Rows) != 2 {
			t.Fatalf("join groups: %v", r.Rows)
		}
		if r.Rows[0][0].S != "ann" || r.Rows[0][1].I != 120 {
			t.Errorf("ann: %v", r.Rows[0])
		}
		if r.Rows[1][0].S != "bob" || r.Rows[1][1].I != 30 {
			t.Errorf("bob: %v", r.Rows[1])
		}
		// A 3-way join.
		db.MustExec("CREATE TABLE items (oid INTEGER, sku TEXT)")
		db.MustExec("INSERT INTO items VALUES (1,'x'), (1,'y'), (3,'z')")
		r = db.MustExec("SELECT count(*) FROM users, orders, items WHERE users.id = orders.uid AND orders.id = items.oid")
		if one(t, r).I != 3 {
			t.Errorf("3-way join: %v", r.Rows)
		}
	})
}

func TestUpdateDelete(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1,1), (2,2), (3,3), (4,4)")
		db.MustExec("CREATE INDEX iv ON t (v)")
		r := db.MustExec("UPDATE t SET v = v * 10 WHERE id > 2")
		if r.RowsAffected != 2 {
			t.Errorf("update affected %d", r.RowsAffected)
		}
		if got := one(t, db.MustExec("SELECT v FROM t WHERE id = 4")); got.I != 40 {
			t.Errorf("updated v = %v", got)
		}
		// Index must follow the update.
		if got := one(t, db.MustExec("SELECT id FROM t WHERE v = 30")); got.I != 3 {
			t.Errorf("index after update: %v", got)
		}
		if got := db.MustExec("SELECT id FROM t WHERE v = 3"); len(got.Rows) != 0 {
			t.Errorf("stale index entry: %v", got.Rows)
		}
		r = db.MustExec("DELETE FROM t WHERE v >= 30")
		if r.RowsAffected != 2 {
			t.Errorf("delete affected %d", r.RowsAffected)
		}
		if got := one(t, db.MustExec("SELECT count(*) FROM t")); got.I != 2 {
			t.Errorf("count after delete = %v", got)
		}
		if res := db.MustExec("PRAGMA integrity_check"); res.Rows[0][0].S != "ok" {
			t.Errorf("integrity: %v", res.Rows)
		}
	})
}

func TestTransactions(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (v INTEGER)")
		db.MustExec("BEGIN")
		db.MustExec("INSERT INTO t VALUES (1)")
		db.MustExec("INSERT INTO t VALUES (2)")
		if err := db.Pager().Rollback(); err != nil {
			t.Fatal(err)
		}
		if got := one(t, db.MustExec("SELECT count(*) FROM t")); got.I != 0 {
			t.Fatalf("rollback kept rows: %v", got)
		}
		db.MustExec("BEGIN")
		db.MustExec("INSERT INTO t VALUES (3)")
		db.MustExec("COMMIT")
		if got := one(t, db.MustExec("SELECT count(*) FROM t")); got.I != 1 {
			t.Fatalf("commit lost rows: %v", got)
		}
		// Nested BEGIN errors.
		db.MustExec("BEGIN")
		if _, err := db.Exec("BEGIN"); err == nil {
			t.Error("nested BEGIN allowed")
		}
		db.MustExec("COMMIT")
		if _, err := db.Exec("COMMIT"); err == nil {
			t.Error("COMMIT without BEGIN allowed")
		}
	})
}

func TestUniqueAndReplace(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, email TEXT)")
		db.MustExec("CREATE INDEX ie ON t (email)")
		db.MustExec("INSERT INTO t VALUES (1, 'a@x'), (2, 'b@x')")
		// rowid conflict, in a statement whose first row went in.
		if _, err := db.Exec("INSERT INTO t VALUES (3, 'c@x'), (1, 'c@x')"); err == nil {
			t.Fatal("pk violation allowed")
		}
		// Autocommit rollback must leave no trace of the failed insert.
		if got := one(t, db.MustExec("SELECT count(*) FROM t")); got.I != 2 {
			t.Fatalf("failed insert left rows: %v", got)
		}
		// REPLACE by rowid, and INSERT OR REPLACE.
		db.MustExec("REPLACE INTO t VALUES (2, 'z@x')")
		if got := one(t, db.MustExec("SELECT email FROM t WHERE id = 2")); got.S != "z@x" {
			t.Fatalf("replace by rowid: %v", got)
		}
		db.MustExec("INSERT OR REPLACE INTO t VALUES (1, 'y@x')")
		if got := rows(db.MustExec("SELECT id FROM t WHERE email = 'y@x'")); got != "1" {
			t.Fatalf("insert or replace by rowid: %q", got)
		}
		if got := rows(db.MustExec("SELECT id FROM t WHERE email = 'a@x'")); got != "" {
			t.Fatalf("the replaced row's index entry is left: %q", got)
		}
		if res := db.MustExec("PRAGMA integrity_check"); res.Rows[0][0].S != "ok" {
			t.Errorf("integrity: %v", res.Rows)
		}
	})
}

// TestUpdateKeepsRowidsUnique: an UPDATE that moves a row onto the rowid
// of another fails, as an INSERT of that rowid does, and its statement
// leaves the table and its index as they were. It used to overwrite the
// other row, report it updated, and leave that row's index entry behind.
func TestUpdateKeepsRowidsUnique(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s TEXT)")
		db.MustExec("CREATE INDEX ts ON t (s)")
		db.MustExec("INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'yy'), (3, 30, 'zzz')")
		for _, sql := range []string{"UPDATE t SET id = 2 WHERE id = 1", "UPDATE t SET id = id + 1 WHERE id >= 2"} {
			if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), "UNIQUE constraint failed: t rowid") {
				t.Errorf("%s: err = %v, want a UNIQUE constraint failure", sql, err)
			}
			if got, want := rows(db.MustExec("SELECT id, a, s FROM t")), "1,10,x;2,20,yy;3,30,zzz"; got != want {
				t.Errorf("after %s: %q, want %q", sql, got, want)
			}
			if got := rows(db.MustExec("SELECT id FROM t WHERE s = 'yy'")); got != "2" {
				t.Errorf("after %s: s = 'yy' finds %q, want 2", sql, got)
			}
			if err := sqldb.CheckIndexes(db); err != nil {
				t.Errorf("after %s: %v", sql, err)
			}
		}
		// A move to a free rowid, and an update that keeps its rowid.
		if r := db.MustExec("UPDATE t SET id = id + 10 WHERE id = 3"); r.RowsAffected != 1 {
			t.Errorf("move to a free rowid affected %d rows", r.RowsAffected)
		}
		db.MustExec("UPDATE t SET id = 1, s = 'w' WHERE id = 1")
		if got, want := rows(db.MustExec("SELECT id, a, s FROM t")), "1,10,w;2,20,yy;13,30,zzz"; got != want {
			t.Errorf("%q, want %q", got, want)
		}
	})
}

// TestFailedUpdateInTransactionWritesNothing: inside BEGIN there is no
// rollback of a failing statement, so an UPDATE runs its conflict check
// before it deletes the old row or its index entries. A failing UPDATE
// there used to leave the row without its index entries, or delete it.
func TestFailedUpdateInTransactionWritesNothing(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s TEXT)")
		db.MustExec("CREATE INDEX ts ON t (s)")
		db.MustExec("CREATE INDEX ta ON t (a)")
		db.MustExec("INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'yy'), (3, 30, 'zzz')")
		db.MustExec("BEGIN")
		for _, sql := range []string{"UPDATE t SET id = 2 WHERE id = 1", "UPDATE t SET a = 11, id = 3 WHERE id = 2"} {
			if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), "UNIQUE constraint failed: t rowid") {
				t.Errorf("%s: err = %v, want a UNIQUE constraint failure", sql, err)
			}
			if err := sqldb.CheckIndexes(db); err != nil {
				t.Errorf("after %s: %v", sql, err)
			}
		}
		db.MustExec("COMMIT")
		if got, want := rows(db.MustExec("SELECT id, a, s FROM t")), "1,10,x;2,20,yy;3,30,zzz"; got != want {
			t.Errorf("%q, want %q", got, want)
		}
		if got := rows(db.MustExec("SELECT id FROM t WHERE s = 'x'")) + ";" + rows(db.MustExec("SELECT id FROM t WHERE a = 20")); got != "1;2" {
			t.Errorf("the indexes find %q, want 1;2", got)
		}
	})
}

// TestAutomaticRowidDoesNotWrap: with the largest rowid taken, an INSERT
// that leaves the rowid to the database fails as SQLite's does, and stores
// nothing. It used to store the row at -2^63.
func TestAutomaticRowidDoesNotWrap(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)")
		db.MustExec("CREATE INDEX ta ON t (a)")
		db.MustExec("INSERT INTO t VALUES (9223372036854775807, 1)")
		if _, err := db.Exec("INSERT INTO t (a) VALUES (42)"); err == nil || !strings.Contains(err.Error(), "database or disk is full") {
			t.Errorf("err = %v, want database or disk is full", err)
		}
		if got, want := rows(db.MustExec("SELECT id, a FROM t")), "9223372036854775807,1"; got != want {
			t.Errorf("%q, want %q", got, want)
		}
		db.MustExec("INSERT INTO t VALUES (-5, 2)") // a rowid given is still taken
		if got, want := rows(db.MustExec("SELECT id FROM t")), "-5;9223372036854775807"; got != want {
			t.Errorf("%q, want %q", got, want)
		}
	})
}

func TestAlterTableAddColumn(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (a INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1), (2)")
		db.MustExec("ALTER TABLE t ADD COLUMN b TEXT")
		r := db.MustExec("SELECT a, b FROM t")
		if !r.Rows[0][1].IsNull() {
			t.Errorf("old row's new column = %v", r.Rows[0][1])
		}
		db.MustExec("INSERT INTO t VALUES (3, 'x')")
		r = db.MustExec("SELECT b FROM t WHERE a = 3")
		if r.Rows[0][0].S != "x" {
			t.Errorf("new column write: %v", r.Rows)
		}
		db.MustExec("UPDATE t SET b = 'filled' WHERE a = 1")
		if got := one(t, db.MustExec("SELECT b FROM t WHERE a = 1")); got.S != "filled" {
			t.Errorf("backfill: %v", got)
		}
	})
}

func TestSubqueryAndExprs(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (a INTEGER, b INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1,10), (2,20), (3,30)")
		if got := one(t, db.MustExec("SELECT (SELECT max(b) FROM t) + 1")); got.I != 31 {
			t.Errorf("scalar subquery: %v", got)
		}
		if got := one(t, db.MustExec("SELECT count(*) FROM t WHERE b = (SELECT min(b) FROM t)")); got.I != 1 {
			t.Errorf("subquery in where: %v", got)
		}
		if got := one(t, db.MustExec("SELECT -5 * length('abc') % 4")); got.I != -3 {
			t.Errorf("funcs: %v", got)
		}
		if got := one(t, db.MustExec("SELECT count(*) FROM t WHERE a IS NOT NULL AND a != 2")); got.I != 2 {
			t.Errorf("not equal: %v", got)
		}
		// % works on the operands truncated to integers: a divisor that
		// truncates to 0 gives NULL, as SQLite does. (It was an integer
		// divide by zero that escaped Exec as a runtime panic.)
		for sql, want := range map[string]string{
			"SELECT 5 % 0.5, 5 % 0, 5.0 % 0.9, 5 % -0.5":     "NULL,NULL,NULL,NULL",
			"SELECT 5.5 % 2, -7 % 3, 7 % -3, 7.9 % 2.9":      "1,-1,1,1",
			"SELECT 5 / 0, 5.0 / 0, 5 / 0.0, 7 / 2, 7.5 / 2": "NULL,NULL,NULL,3,3.75",
		} {
			if got := rows(db.MustExec(sql)); got != want {
				t.Errorf("%s = %q, want %q", sql, got, want)
			}
		}
	})
}

// TestFunctionArity: a scalar function called with too few or too many
// arguments fails its statement with SQLite's message, and the database
// goes on answering. Each of these used to index an argument it never
// counted — a runtime panic that escaped Exec and the SQLITE cubicle.
func TestFunctionArity(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		many := strings.Repeat("1, ", 127) + "1" // SQLite's cap is 127
		for _, call := range []string{
			"length()", "length('a', 'b')", "length(" + many + ")", "random(1)", "length(*)", "random(*)",
		} {
			name := call[:strings.IndexByte(call, '(')]
			if _, err := db.Exec("SELECT " + call); err == nil ||
				!strings.Contains(err.Error(), "wrong number of arguments to function "+name+"()") {
				t.Errorf("SELECT %.24s: err = %v, want wrong number of arguments", call, err)
			}
			if got := rows(db.MustExec("SELECT 1")); got != "1" {
				t.Fatalf("after SELECT %.24s: SELECT 1 = %q", call, got)
			}
		}
		const sql = "SELECT length('abc'), length(12.5), length(NULL), count(*), random() = random()"
		if got, want := rows(db.MustExec(sql)), "3,4,NULL,1,0"; got != want {
			t.Errorf("%s = %q, want %q", sql, got, want)
		}
		if _, err := db.Exec("SELECT nosuch(1)"); err == nil || !strings.Contains(err.Error(), "no such function nosuch") {
			t.Errorf("SELECT nosuch(1): err = %v", err)
		}
	})
}

func TestPersistenceAcrossReopen(t *testing.T) {
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{{
		Name: "SQLITE", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "sqlite_main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	open := func(e *cubicle.Env) *sqldb.DB {
		vfs := vfscore.NewClient(s.M, s.Cubs["SQLITE"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		ioBuf := e.HeapAlloc(sqldb.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, ioBuf, sqldb.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
		db, err := sqldb.Open(e, vfs, "/persist.db", ioBuf, 32)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		db := open(e)
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
		db.MustExec("CREATE INDEX is1 ON t (s)")
		db.MustExec("BEGIN")
		for i := 0; i < 200; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'value-%04d')", i+1, i))
		}
		db.MustExec("COMMIT")
		// Every shape of column the parser keeps: a rowid alias first and
		// past the first column, a primary key that is not one, a column
		// with no type, and one ALTER TABLE added.
		db.MustExec("CREATE TABLE u (a, b BLOB, c TEXT PRIMARY KEY)")
		db.MustExec("CREATE TABLE w (x REAL, k INTEGER PRIMARY KEY NOT NULL)")
		db.MustExec("ALTER TABLE t ADD COLUMN n REAL")
		created := map[string]sqldb.Table{}
		for _, name := range []string{"t", "u", "w"} {
			created[name] = *db.Table(name)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := open(e)
		defer db2.Close()
		for name, want := range created {
			got := db2.Table(name)
			if !slices.Equal(got.Columns, want.Columns) || got.RowidCol != want.RowidCol {
				t.Errorf("reopened table %s: columns %v, rowid column %d; created %v, %d",
					name, got.Columns, got.RowidCol, want.Columns, want.RowidCol)
			}
		}
		if got := one(t, db2.MustExec("SELECT count(*) FROM t")); got.I != 200 {
			t.Fatalf("reopened count = %v", got)
		}
		if got := one(t, db2.MustExec("SELECT id FROM t WHERE s = 'value-0123'")); got.I != 124 {
			t.Fatalf("index after reopen: %v", got)
		}
		if res := db2.MustExec("PRAGMA integrity_check"); res.Rows[0][0].S != "ok" {
			t.Fatalf("integrity after reopen: %v", res.Rows)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLargeDatasetSplitsAndCache loads enough rows to force many B+tree
// splits and cache evictions with a tiny cache, then checks integrity and
// query correctness.
func TestLargeDatasetSplitsAndCache(t *testing.T) {
	testDBNamed(t, "/big.db", 16, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, pad TEXT, k INTEGER)")
		db.MustExec("CREATE INDEX ik ON t (k)")
		db.MustExec("BEGIN")
		pad := strings.Repeat("p", 200)
		const n = 3000
		for i := 1; i <= n; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s', %d)", i, pad, i%97))
		}
		db.MustExec("COMMIT")
		if db.Pager().NPages() < 20 {
			t.Fatalf("expected many pages, got %d", db.Pager().NPages())
		}
		if db.Pager().Stats.Misses == 0 {
			t.Error("tiny cache never missed")
		}
		if got := one(t, db.MustExec("SELECT count(*) FROM t")); got.I != n {
			t.Fatalf("count = %v", got)
		}
		if got := one(t, db.MustExec("SELECT count(*) FROM t WHERE k = 7")); got.I != 31 {
			t.Errorf("k=7 count = %v (want 31)", got)
		}
		if got := one(t, db.MustExec("SELECT sum(id) FROM t WHERE id BETWEEN 1000 AND 1009")); got.I != 10045 {
			t.Errorf("sum = %v", got)
		}
		if res := db.MustExec("PRAGMA integrity_check"); res.Rows[0][0].S != "ok" {
			t.Fatalf("integrity: %v", res.Rows)
		}
	})
}

func TestSQLErrors(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		for _, bad := range []string{
			"SELEC 1",
			"SELECT FROM",
			"INSERT INTO missing VALUES (1)",
			"SELECT nosuch FROM t0",
			"CREATE TABLE",
			"DROP VIEW v",
			"SELECT 'unterminated",
			"UPDATE missing SET a = 1",
			"DELETE FROM missing",
			"PRAGMA nosuchpragma",
		} {
			if _, err := db.Exec(bad); err == nil {
				t.Errorf("accepted %q", bad)
			}
		}
		db.MustExec("CREATE TABLE t0 (a INTEGER)")
		if _, err := db.Exec("CREATE TABLE t0 (a INTEGER)"); err == nil {
			t.Error("duplicate table accepted")
		}
	})
}

// TestStatementWorkIsCharged: SQL execution must consume virtual cycles.
func TestStatementWorkIsCharged(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (a INTEGER)")
		before := e.M.Clock.Cycles()
		db.MustExec("INSERT INTO t VALUES (1)")
		if e.M.Clock.Cycles() == before {
			t.Error("statement charged no cycles")
		}
	})
}

// TestSpeedtestNeverWritesAPageUnderAScan runs the benchmark's workload —
// speedtest1 at size 100 on a 128-page cache, set-up and every query —
// under the scan guard.
func TestSpeedtestNeverWritesAPageUnderAScan(t *testing.T) {
	testDBNamed(t, "/speedtest.db", 128, func(e *cubicle.Env, db *sqldb.DB) {
		r := speedtest.New(db, speedtest.Config{Size: 100})
		if err := r.Setup(); err != nil {
			t.Fatal(err)
		}
		for _, id := range speedtest.QueryIDs {
			if err := r.Run(id); err != nil {
				t.Fatalf("query %d: %v", id, err)
			}
		}
	})
}

// TestFrameReuseRowViewOutlivesEviction: the row a look-up shows the join
// stays readable while the levels under it evict its leaf. On an 8-page
// cache, the join's last level scans a 17-page table between the look-up
// that binds a row of a — by rowid, then through an index — and the
// projection that reads the row's text. Were the leaf not pinned, its
// frame would be the next miss's, and under the guard read 0xDD first.
func TestFrameReuseRowViewOutlivesEviction(t *testing.T) {
	testDBNamed(t, "/view.db", 8, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)")
		db.MustExec("CREATE INDEX ak ON a (k)")
		db.MustExec("CREATE TABLE big (v INTEGER, pad TEXT)")
		db.MustExec("CREATE TABLE x (ref INTEGER)")
		pad := strings.Repeat("p", 200)
		db.MustExec("BEGIN")
		for i := 1; i <= 300; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO a VALUES (%d, %d, 'row %d %s')", i, 1000+i, i, pad))
			db.MustExec(fmt.Sprintf("INSERT INTO big VALUES (%d, '%s')", i, pad))
		}
		for i := 1; i <= 30; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO x VALUES (%d)", 7*i))
		}
		db.MustExec("COMMIT")
		for _, q := range []string{
			"SELECT a.s FROM x, a, big WHERE a.id = x.ref AND big.v = 300",
			"SELECT a.s FROM x, a, big WHERE a.k = x.ref + 1000 AND big.v = 300",
		} {
			misses := db.Pager().Stats.Misses
			r := db.MustExec(q)
			if len(r.Rows) != 30 {
				t.Fatalf("%s: %d rows, want 30", q, len(r.Rows))
			}
			for i, row := range r.Rows {
				if want := fmt.Sprintf("row %d %s", 7*(i+1), pad); row[0].S != want {
					t.Errorf("%s: row %d reads %.24q, want %.24q", q, i, row[0].S, want)
				}
			}
			if got := db.Pager().Stats.Misses - misses; got < 30*17 {
				t.Errorf("premise broken: %d misses, want every scan of big to read it from the file", got)
			}
		}
	})
}

// faultyFS fails, while its switches are on, the database's and its
// journal's file-system calls a test picks: every write to the journal,
// every read of it, the database's fsyncs, or the database write that
// dbWriteFails counts down to. A file is the journal when its path ends
// in "-journal", the database when it is opened read-write.
type faultyFS struct {
	journalWrites, journalReads, dbSyncs bool
	dbWriteFails                         int
	journal                              map[uint64]bool // open fds of the journal
	db                                   uint64
}

type callerFunc func(e *cubicle.Env, args ...uint64) []uint64

func (f callerFunc) Call(e *cubicle.Env, args ...uint64) []uint64 { return f(e, args...) }

func (f *faultyFS) wrap(name string, inner vfscore.Caller) vfscore.Caller {
	fail := func(on func(args []uint64) bool) vfscore.Caller {
		return callerFunc(func(e *cubicle.Env, args ...uint64) []uint64 {
			if on(args) {
				return []uint64{0, vfscore.ENOSPC}
			}
			return inner.Call(e, args...)
		})
	}
	switch name {
	case "vfs_open":
		return callerFunc(func(e *cubicle.Env, args ...uint64) []uint64 {
			path := string(cubicletest.ReadBytes(e, vm.Addr(args[0]), args[1]))
			r := inner.Call(e, args...)
			switch {
			case strings.HasSuffix(path, "-journal"):
				f.journal[r[0]] = true
			case args[2]&vfscore.ORdwr != 0:
				f.db = r[0]
			}
			return r
		})
	case "vfs_close":
		return callerFunc(func(e *cubicle.Env, args ...uint64) []uint64 {
			delete(f.journal, args[0])
			return inner.Call(e, args...)
		})
	case "vfs_pwrite":
		return fail(func(args []uint64) bool {
			if args[0] == f.db && f.dbWriteFails > 0 {
				f.dbWriteFails--
				return f.dbWriteFails == 0
			}
			return f.journalWrites && f.journal[args[0]]
		})
	case "vfs_pread":
		return fail(func(args []uint64) bool { return f.journalReads && f.journal[args[0]] })
	case "vfs_fsync":
		return fail(func(args []uint64) bool { return f.dbSyncs && args[0] == f.db })
	}
	return inner
}

// faultyDB is a database on a faultyFS with an eight-page cache, holding
// table t of 600 rows (id, s) across some twenty leaves, s of 100 'a's.
type faultyDB struct {
	t      *testing.T
	e      *cubicle.Env
	vfs    *vfscore.Client
	faults *faultyFS
	bufs   vm.Addr // the pager's I/O buffer, then a page for image
	db     *sqldb.DB
}

const faultyPath = "/faulty.db"

func withFaultyDB(t *testing.T, fn func(f *faultyDB)) {
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeFull, Extra: []*cubicle.Component{{
		Name: "SQLITE", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "sqlite_main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	err := s.RunAs("SQLITE", func(e *cubicle.Env) {
		f := &faultyDB{t: t, e: e, vfs: vfscore.NewClient(s.M, s.Cubs["SQLITE"].ID), faults: &faultyFS{journal: map[uint64]bool{}}}
		f.vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		f.vfs.Wrap(f.faults.wrap)
		f.bufs = e.HeapAlloc(2 * sqldb.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, f.bufs, 2*sqldb.PageSize)
		e.WindowOpen(wid, e.CubicleOf(vfscore.Name))
		e.WindowOpen(wid, e.CubicleOf(ramfs.Name))
		f.db = f.open()
		f.db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)")
		f.db.MustExec("BEGIN")
		for i := 1; i <= 600; i++ {
			f.db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s')", i, strings.Repeat("a", 100)))
		}
		f.db.MustExec("COMMIT")
		fn(f)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// open opens the database afresh, recovering from a journal left behind.
func (f *faultyDB) open() *sqldb.DB {
	db, err := sqldb.Open(f.e, f.vfs, faultyPath, f.bufs, 8)
	if err != nil {
		f.t.Fatal(err)
	}
	db.Pager().GuardScans()
	db.PoisonRows()
	return db
}

// image reads the database file as it is on disk, past the pager.
func (f *faultyDB) image() []byte {
	fd, errno := f.vfs.Open(f.e, faultyPath, vfscore.ORdonly)
	if errno != vfscore.EOK {
		f.t.Fatalf("open: errno %d", errno)
	}
	defer f.vfs.Close(f.e, fd)
	var out []byte
	for off := uint64(0); ; off += sqldb.PageSize {
		n, errno := f.vfs.PRead(f.e, fd, f.bufs+sqldb.PageSize, sqldb.PageSize, off)
		if errno != vfscore.EOK {
			f.t.Fatalf("pread: errno %d", errno)
		}
		if n == 0 {
			return out
		}
		out = append(out, cubicletest.ReadBytes(f.e, f.bufs+sqldb.PageSize, n)...)
	}
}

// journal reports whether a journal file is left on disk.
func (f *faultyDB) journal() bool {
	size, errno := f.vfs.Stat(f.e, faultyPath+"-journal")
	return errno == vfscore.EOK && size > 0
}

// holds checks that db holds table t as withFaultyDB filled it.
func (f *faultyDB) holds(db *sqldb.DB) {
	f.t.Helper()
	if r := db.MustExec("SELECT count(*) FROM t WHERE s LIKE 'a%'"); one(f.t, r).I != 600 {
		f.t.Errorf("%d rows kept their value, want 600", one(f.t, r).I)
	}
	if r := db.MustExec("PRAGMA integrity_check"); one(f.t, r).S != "ok" {
		f.t.Errorf("integrity_check: %v", r.Rows)
	}
}

// update rewrites every row of t in place, the same length, so that the
// file keeps its pages: some twenty journaled, for an eight-page cache.
var update = "UPDATE t SET s = '" + strings.Repeat("b", 100) + "'"

// TestJournalWriteFailureFailsTheStatement: when the journal cannot take
// a page's pre-image, the statement that needed the spill must fail and
// no database page may have been overwritten — the write-ahead rule. (The
// pager used to ignore the journal's errno and byte count and go on to
// overwrite the page the journal was there to protect.)
func TestJournalWriteFailureFailsTheStatement(t *testing.T) {
	withFaultyDB(t, func(f *faultyDB) {
		before := f.image()
		f.faults.journalWrites = true
		spills := f.db.Pager().Stats.Spills
		if _, err := f.db.Exec(update); err == nil || !strings.Contains(err.Error(), "journal write") {
			t.Fatalf("update with a failing journal: err = %v, want the journal write error", err)
		}
		if f.db.Pager().Stats.Spills == spills {
			t.Fatal("premise broken: the update never spilled")
		}
		f.faults.journalWrites = false
		if after := f.image(); !bytes.Equal(before, after) {
			t.Error("the database file changed although the journal write failed")
		}
		f.holds(f.db)

		// With the journal back, the same statement goes through.
		if r := f.db.MustExec(update); r.RowsAffected != 600 {
			t.Errorf("update affected %d rows, want 600", r.RowsAffected)
		}
		if r := f.db.MustExec("SELECT count(*) FROM t WHERE s LIKE 'b%'"); one(t, r).I != 600 {
			t.Errorf("%d rows updated, want 600", one(t, r).I)
		}
		if err := f.db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRollbackAfterSpillRestoresTheFile: a transaction that journals more
// pages than the cache holds, and so has overwritten some in the file,
// rolls back to the file as it was before BEGIN, byte for byte — through
// an explicit rollback and through a failing autocommit statement. The
// pre-images of the spilled pages come back from the journal: their
// buffers were released, and under the guard poisoned, once it held them.
func TestRollbackAfterSpillRestoresTheFile(t *testing.T) {
	withFaultyDB(t, func(f *faultyDB) {
		before := f.image()
		for _, c := range []struct {
			name string
			run  func() error
		}{
			{"Rollback", func() error {
				f.db.MustExec("BEGIN")
				f.db.MustExec(update)
				return f.db.Pager().Rollback()
			}},
			{"a failing autocommit statement", func() error {
				f.faults.dbWriteFails = 20 // a page write of a spill late in the statement
				if _, err := f.db.Exec(update); err == nil || !strings.Contains(err.Error(), "write page") {
					t.Errorf("update with a failing page write: err = %v", err)
				}
				return nil
			}},
		} {
			st := f.db.Pager().Stats
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := f.db.Pager().Stats; got.JournalPages-st.JournalPages <= 8 || got.Spills == st.Spills {
				t.Errorf("%s: premise broken: %d pages journaled, %d spills", c.name, got.JournalPages-st.JournalPages, got.Spills-st.Spills)
			}
			if !bytes.Equal(before, f.image()) {
				t.Errorf("%s: the file is not as it was before the transaction", c.name)
			}
			if f.journal() {
				t.Errorf("%s: a journal is left behind", c.name)
			}
			f.holds(f.db)
		}
	})
}

// TestFailedRollbackLeavesTheJournal: a journal read that fails while
// Rollback replays it returns the error and leaves the journal where it
// is; the next open recovers from it, to the file as it was before BEGIN.
func TestFailedRollbackLeavesTheJournal(t *testing.T) {
	withFaultyDB(t, func(f *faultyDB) {
		before := f.image()
		f.db.MustExec("BEGIN")
		f.db.MustExec(update)
		f.faults.journalReads = true
		if err := f.db.Pager().Rollback(); err == nil || !strings.Contains(err.Error(), "journal") {
			t.Fatalf("Rollback with a failing journal read: err = %v", err)
		}
		f.faults.journalReads = false
		if !f.journal() {
			t.Fatal("the failed rollback removed the journal")
		}
		db := f.open()
		if got := db.Pager().Stats.Recoveries; got != 1 {
			t.Errorf("%d recoveries at the next open, want 1", got)
		}
		if !bytes.Equal(before, f.image()) || f.journal() {
			t.Error("recovery did not restore the file, or left the journal")
		}
		f.holds(db)
	})
}

// TestFailedFsyncFailsTheCommit: a database fsync that fails fails the
// commit, whose pages may not be on disk, and leaves the journal; so does
// one that fails the recovery at the next open. The open after that
// recovers the file as it was before the statement.
func TestFailedFsyncFailsTheCommit(t *testing.T) {
	withFaultyDB(t, func(f *faultyDB) {
		before := f.image()
		f.faults.dbSyncs = true
		if _, err := f.db.Exec(update); err == nil || !strings.Contains(err.Error(), "fsync") {
			t.Fatalf("update with a failing fsync: err = %v", err)
		}
		if !f.journal() {
			t.Fatal("the failed commit removed the journal")
		}
		if _, err := sqldb.Open(f.e, f.vfs, faultyPath, f.bufs, 8); err == nil || !f.journal() {
			t.Fatalf("an open whose recovery cannot fsync: err = %v, journal left: %v", err, f.journal())
		}
		f.faults.dbSyncs = false
		db := f.open()
		if got := db.Pager().Stats.Recoveries; got != 1 {
			t.Errorf("%d recoveries at the next open, want 1", got)
		}
		if !bytes.Equal(before, f.image()) || f.journal() {
			t.Error("recovery did not restore the file, or left the journal")
		}
		f.holds(db)
	})
}

// TestAggregateUnderExpressions: an aggregate call may sit under a scalar
// function or BETWEEN, not only under arithmetic or a comparison. The
// first three used to fail with "aggregate … used outside an aggregate
// query".
func TestAggregateUnderExpressions(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (g INTEGER, a INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1, -3), (1, -4), (2, 5), (2, NULL)")
		for _, c := range []struct{ sql, want string }{
			{"SELECT length(sum(a)) FROM t", "2"},
			{"SELECT count(*) BETWEEN 1 AND 5, count(a) BETWEEN 4 AND 5 FROM t", "1,0"},
			{"SELECT g, length(min(a)), count(a) BETWEEN 1 AND 1 FROM t GROUP BY g ORDER BY g", "1,2,0;2,1,1"},
			{"SELECT 0 - sum(a) + 1, count(*) = 4 FROM t", "3,1"},
		} {
			if got := rows(db.MustExec(c.sql)); got != c.want {
				t.Errorf("%s = %q, want %q", c.sql, got, c.want)
			}
		}
	})
}
