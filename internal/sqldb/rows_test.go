package sqldb_test

import (
	"slices"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/sqldb"
)

// rows renders a result as "v,v;v,v".
func rows(r *sqldb.Result) string {
	var sb strings.Builder
	for i, row := range r.Rows {
		if i > 0 {
			sb.WriteByte(';')
		}
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

// TestIntegerCompareIsExact: two integers compare as integers. Through
// float64, 2^53 and 2^53+1 were equal.
func TestIntegerCompareIsExact(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
		db.MustExec("INSERT INTO t VALUES (9007199254740993, 'odd'), (9007199254740992, 'even')")
		for _, indexed := range []bool{false, true} {
			if indexed {
				// The index key still goes through float64: the two rows share
				// one key, and the row filter behind the index tells them apart.
				db.MustExec("CREATE INDEX ta ON t (a)")
			}
			for _, c := range []struct{ sql, want string }{
				{"SELECT 9007199254740993 = 9007199254740992", "0"},
				{"SELECT 9007199254740993 > 9007199254740992", "1"},
				{"SELECT b FROM t WHERE a = 9007199254740992", "even"},
				{"SELECT b FROM t WHERE a = 9007199254740993", "odd"},
				{"SELECT b FROM t WHERE a > 9007199254740992", "odd"},
				{"SELECT b FROM t WHERE a BETWEEN 9007199254740993 AND 9007199254740993", "odd"},
				{"SELECT b FROM t ORDER BY a", "even;odd"},
				{"SELECT b FROM t ORDER BY a DESC", "odd;even"},
				{"SELECT max(a), min(a) FROM t", "9007199254740993,9007199254740992"},
				// Against a real as well: Compare has to stay transitive.
				{"SELECT b FROM t WHERE a = 9007199254740992.0", "even"},
				{"SELECT b FROM t WHERE a > 9007199254740992.0", "odd"},
				{"SELECT 9007199254740993 > 9007199254740992.0, 9007199254740992.0 < 9007199254740993", "1,1"},
				{"SELECT 3 > 2.5, -3 < -2.5, 2 = 2.0, 2.5 > 2, 9223372036854775807 < 1e19", "1,1,1,1,1"},
			} {
				if got := rows(db.MustExec(c.sql)); got != c.want {
					t.Errorf("indexed=%v: %s = %q, want %q", indexed, c.sql, got, c.want)
				}
			}
		}
		// The rowid access paths take their bounds from the same values.
		db.MustExec("CREATE TABLE k (id INTEGER PRIMARY KEY, b TEXT)")
		db.MustExec("INSERT INTO k VALUES (-2, 'neg'), (2, 'two'), (9007199254740992, 'even'), (9007199254740993, 'odd')")
		for _, c := range []struct{ sql, want string }{
			{"SELECT b FROM k WHERE id = 9007199254740993", "odd"},
			{"SELECT b FROM k WHERE id = 9007199254740992", "even"},
			{"SELECT b FROM k WHERE id = 9007199254740992.0", "even"},
			{"SELECT b FROM k WHERE id <= 9007199254740993 AND id > 2", "even;odd"},
			{"SELECT b FROM k WHERE id < 9007199254740993 AND id > 2", "even"},
			{"SELECT b FROM k WHERE id >= 9007199254740993", "odd"},
			{"SELECT b FROM k WHERE id > 9007199254740992", "odd"},
			{"SELECT b FROM k WHERE id BETWEEN 9007199254740993 AND 9007199254740993", "odd"},
			{"SELECT b FROM k WHERE id BETWEEN 3 AND 9007199254740993", "even;odd"},
			// A bound that is not an integer admits every match.
			{"SELECT b FROM k WHERE id < 2.5", "neg;two"},
			{"SELECT b FROM k WHERE id > -2.5 AND id < 3", "neg;two"},
			{"SELECT b FROM k WHERE id <= 2.0", "neg;two"},
			{"SELECT b FROM k WHERE id < 2.0", "neg"},
			{"SELECT b FROM k WHERE id = 2.5", ""},
			{"SELECT b FROM k WHERE id < 1e30 AND id > -1e30", "neg;two;even;odd"},
			{"SELECT b FROM k WHERE id < 'abc'", "neg;two;even;odd"},
			{"SELECT b FROM k WHERE id > 'abc'", ""},
			{"SELECT b FROM k WHERE id > NULL", ""},
			{"SELECT b FROM k WHERE id > 9223372036854775807", ""},
		} {
			if got := rows(db.MustExec(c.sql)); got != c.want {
				t.Errorf("%s = %q, want %q", c.sql, got, c.want)
			}
		}
	})
}

// snapshot is a deep copy of r: its rows and their texts share
// no memory with the Result, which the next Exec reuses.
func snapshot(r *sqldb.Result) *sqldb.Result {
	out := &sqldb.Result{Cols: slices.Clone(r.Cols), RowsAffected: r.RowsAffected, LastRowid: r.LastRowid}
	for _, row := range r.Rows {
		cp := make([]sqldb.Value, len(row))
		for i, v := range row {
			cp[i] = v
			cp[i].S = strings.Clone(v.S)
		}
		out.Rows = append(out.Rows, cp)
	}
	return out
}

// TestReusedRowsDoNotLeak runs, under the row poison testDB switches on,
// everything that keeps a row or a value of one beyond the row's callback:
// a bind's value slice is reused from row to row and its text columns are
// views of a page frame. A Result is good until the next Exec, whose poison
// then covers it: each is checked on receipt, and a snapshot taken then is
// checked again at the end, after every later statement has reused the
// parser's nodes, the binds' buffers, the Result's arenas and the frames.
// Subquery results are poisoned as soon as the next statement at their
// depth starts.
func TestReusedRowsDoNotLeak(t *testing.T) {
	testDB(t, func(e *cubicle.Env, db *sqldb.DB) {
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, grp TEXT, n INTEGER, s TEXT)")
		db.MustExec("INSERT INTO t VALUES (1,'a',10,'row1'), (2,'b',20,'row2'), (3,'a',30,'row3')," +
			" (4,'b',40,'row4'), (5,'c',50,'row5'), (6,'c',60,'row6')")
		db.MustExec("CREATE TABLE p (x TEXT)")
		db.MustExec("INSERT INTO p VALUES ('first'), ('second')")
		type result struct {
			sql, want string
			r         *sqldb.Result
		}
		var results []result
		check := func(sql, want string) {
			t.Helper()
			r, err := db.Exec(sql)
			if err != nil {
				t.Errorf("%s: %v", sql, err)
			} else if got := rows(r); got != want {
				t.Errorf("%s\n got %q\nwant %q", sql, got, want)
			} else {
				results = append(results, result{sql, want, snapshot(r)})
			}
		}
		defer func() {
			for _, res := range results {
				if got := rows(res.r); got != res.want {
					t.Errorf("%s, its snapshot read after the later statements\n got %q\nwant %q", res.sql, got, res.want)
				}
			}
		}()
		// ORDER BY, by a hidden sort column and by visible ones.
		check("SELECT s FROM t ORDER BY n DESC", "row6;row5;row4;row3;row2;row1")
		check("SELECT s, grp FROM t ORDER BY grp DESC, s", "row5,c;row6,c;row2,b;row4,b;row1,a;row3,a")
		check("SELECT id, grp, n, s FROM t ORDER BY s DESC LIMIT 2", "6,c,60,row6;5,c,50,row5")
		// GROUP BY: the group's first row is kept while the scan goes on.
		check("SELECT grp, s, count(*), id FROM t GROUP BY grp", "a,row1,2,1;b,row2,2,2;c,row5,2,5")
		check("SELECT grp, s, sum(n) FROM t GROUP BY grp ORDER BY s DESC", "c,row5,110;b,row2,60;a,row1,40")
		check("SELECT grp, length(s) FROM t GROUP BY grp ORDER BY grp DESC", "c,4;b,4;a,4")
		// MIN and MAX over text keep a value while the scan goes on.
		check("SELECT grp, min(s), max(s) FROM t GROUP BY grp", "a,row1,row3;b,row2,row4;c,row5,row6")
		check("SELECT min(s), max(s), min(grp) FROM t WHERE n > 15", "row2,row6,a")
		check("SELECT length(s), s FROM t WHERE id = 2", "4,row2")
		// A subquery over the same table: the outer row is read again after
		// the inner scan has bound, and dropped, rows of the same table.
		check("SELECT s, (SELECT count(*) FROM t WHERE grp = 'a'), grp FROM t WHERE id <= 2", "row1,2,a;row2,2,b")
		check("SELECT s, grp FROM t WHERE n = (SELECT max(n) FROM t WHERE grp = 'b') AND s LIKE 'row%'", "row4,b")
		// Scalar subqueries whose text is read after the next subquery at
		// their depth has started.
		check("SELECT (SELECT s FROM t WHERE id = 1), (SELECT s FROM t WHERE id = 2)", "row1,row2")
		check("SELECT (SELECT s FROM t WHERE id = 2), (SELECT grp FROM t WHERE id = 3), id FROM t WHERE id < 3", "row2,a,1;row2,a,2")
		// A join: two binds, the second a look-up by rowid.
		check("SELECT t.s, p.x FROM t, p WHERE p.rowid = t.id ORDER BY t.id", "row1,first;row2,second")
		check("SELECT t.s, p.x, t.id, t.grp FROM t, p WHERE p.rowid = t.id + 1 AND t.id = 1", "row1,second,1,a")
		// The rowid and its alias column.
		check("SELECT id, rowid, s FROM t WHERE id = 3", "3,3,row3")
		check("SELECT rowid, x FROM p ORDER BY x DESC", "2,second;1,first")
		check("SELECT x FROM p WHERE rowid = 2", "second")

		db.MustExec("INSERT INTO t (grp, n, s) VALUES ('a', 11, 'row1+'), ('b', 21, 'row2+')")
		check("SELECT id, grp, n, s FROM t WHERE id > 6", "7,a,11,row1+;8,b,21,row2+")
		// UPDATE and DELETE work from a hit list collected by a scan, with an
		// index to keep in step.
		db.MustExec("CREATE INDEX tg ON t (grp)")
		db.MustExec("UPDATE t SET grp = 'cx', n = n + 1 WHERE n > 40")
		check("SELECT id, s, n FROM t WHERE grp = 'cx' ORDER BY id", "5,row5,51;6,row6,61")
		check("SELECT count(*) FROM t WHERE grp = 'c'", "0")
		db.MustExec("UPDATE t SET id = id + 100 WHERE grp = 'b'")
		check("SELECT id, s FROM t WHERE grp = 'b' ORDER BY id", "102,row2;104,row4;108,row2+")
		db.MustExec("DELETE FROM t WHERE s LIKE 'row2%'")
		check("SELECT id, grp, s FROM t ORDER BY id", "1,a,row1;3,a,row3;5,cx,row5;6,cx,row6;7,a,row1+;104,b,row4")
		check("SELECT s FROM t WHERE grp = 'b'", "row4")
		// ALTER TABLE ADD COLUMN: old rows are a column short.
		db.MustExec("ALTER TABLE t ADD COLUMN extra TEXT")
		check("SELECT id, grp, n, s, extra FROM t WHERE id = 3", "3,a,30,row3,NULL")
		check("SELECT s, extra FROM t WHERE extra IS NULL AND grp = 'b'", "row4,NULL")
		check("SELECT grp, extra, count(*) FROM t GROUP BY grp", "a,NULL,3;cx,NULL,2;b,NULL,1")
		db.MustExec("UPDATE t SET extra = s WHERE id < 4")
		check("SELECT id, extra FROM t ORDER BY extra DESC, id LIMIT 3", "3,row3;1,row1;5,NULL")
		db.MustExec("CREATE INDEX te ON t (extra)")
		check("SELECT id FROM t WHERE extra = 'row1'", "1")
		check("PRAGMA integrity_check", "ok")
	})
}
