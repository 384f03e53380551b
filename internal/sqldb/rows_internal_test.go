package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestLRUVictimMatchesScan drives random fetches, touches and allocations
// against the model the recency ring replaced: a tick per cached page, the
// victim the page other than page 1 with the lowest. After every step the
// cache holds exactly the model's pages and the ring exactly the cache's,
// most recent first.
func TestLRUVictimMatchesScan(t *testing.T) {
	withPager(t, 8, func(p *Pager) {
		ticks, tick := map[uint32]uint64{}, uint64(0)
		touch := func(pgno uint32) { tick++; ticks[pgno] = tick }
		for pg := p.recent.prev; pg != &p.recent; pg = pg.prev {
			touch(pg.pgno)
		}
		evict := func() {
			for len(ticks) > p.cap {
				victim := uint32(0)
				for pgno, at := range ticks {
					if pgno != 1 && (victim == 0 || at < ticks[victim]) {
						victim = pgno
					}
				}
				delete(ticks, victim)
			}
		}
		rng := rand.New(rand.NewSource(18))
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(8); {
			case op < 5: // fetch: a hit touches, a miss inserts, touches and evicts
				pgno := 1 + uint32(rng.Intn(int(p.nPages)))
				p.page(pgno)
				touch(pgno)
				evict()
			case op < 7: // allocate
				touch(p.Allocate())
				touch(1) // the header write
				evict()
			default:
				for _, pg := range p.cache { // any cached page
					if pg != nil {
						p.touch(pg)
						touch(pg.pgno)
						break
					}
				}
			}
			if p.cached != len(ticks) {
				t.Fatalf("step %d: %d pages cached, the model has %d", step, p.cached, len(ticks))
			}
			n, last := 0, tick+1
			for pg := p.recent.next; pg != &p.recent; pg = pg.next {
				at, ok := ticks[pg.pgno]
				switch {
				case !ok:
					t.Fatalf("step %d: page %d is cached, the model evicted it", step, pg.pgno)
				case p.cache[pg.pgno] != pg:
					t.Fatalf("step %d: the ring holds a stale frame of page %d", step, pg.pgno)
				case at >= last:
					t.Fatalf("step %d: page %d (tick %d) sits behind a page of tick %d", step, pg.pgno, at, last)
				case pg.next.prev != pg:
					t.Fatalf("step %d: broken link after page %d", step, pg.pgno)
				}
				n, last = n+1, at
			}
			if n != p.cached {
				t.Fatalf("step %d: %d pages on the ring, %d cached", step, n, p.cached)
			}
		}
		if p.Stats.Misses < 100 || p.Stats.Hits < 100 {
			t.Errorf("premise broken: %d hits, %d misses", p.Stats.Hits, p.Stats.Misses)
		}
	})
}

// keptRow returns a copy of vals that shares no memory with anything.
func keptRow(vals []Value) []Value {
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = kept(v)
	}
	return out
}

// TestPoisonRowsCatchesAKeptRow is the positive control of the row poison:
// a callback that keeps the bind's slice reads POISON once the row's
// callback has returned, and one that keeps a text value without copying
// it reads 0xDD bytes. A copy reads the row.
func TestPoisonRowsCatchesAKeptRow(t *testing.T) {
	withDB(t, 64, func(db *DB) {
		db.PoisonRows()
		db.MustExec("CREATE TABLE t (a INTEGER, s TEXT)")
		db.MustExec("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
		f := &frame{res: new(Result)}
		b := f.bind(0, db.cat.Table("t"))
		var slice, views, copies [][]Value
		db.join(f, 1, nil, func(*rowCtx) bool {
			slice = append(slice, b.vals)
			views = append(views, slices.Clone(b.vals))
			copies = append(copies, keptRow(b.vals))
			return true
		})
		for i, want := range []string{"one", "two"} {
			if got := slice[i][1].S; got != "POISON" {
				t.Errorf("row %d: the kept slice reads %q after its callback", i, got)
			}
			if got := views[i][1].S; got != strings.Repeat("\xdd", len(want)) {
				t.Errorf("row %d: the kept view reads %q after its callback", i, got)
			}
			if got := copies[i][1].S; got != want {
				t.Errorf("row %d: the copy reads %q, want %q", i, got, want)
			}
		}
	})
}

// TestPoisonRowsCatchesAKeptResult is the positive control of the Result
// poison: a Result, a row of it or a text of it kept past the next Exec
// reads POISON or 0xDD bytes, and so does a subquery's kept past the next
// subquery at its depth. A copy reads the row. The result's texts take
// several chunks of the text arena, and the first row's and the last row's
// lie in different ones: every chunk in use is poisoned.
func TestPoisonRowsCatchesAKeptResult(t *testing.T) {
	withDB(t, 64, func(db *DB) {
		db.PoisonRows()
		db.MustExec("CREATE TABLE t (a INTEGER, s TEXT)")
		db.MustExec("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
		for i := 3; i <= 40; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row %d of the filler %s')", i, i, strings.Repeat("f", 1000)))
		}
		stmt, err := Parse("SELECT a, s FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if r := db.MustExec("SELECT a, s FROM t"); len(db.frames[0].text.inUse()) < 2 {
			t.Fatalf("premise broken: %d rows in one text chunk", len(r.Rows))
		}
		for _, run := range []struct {
			name string
			fn   func() *Result
		}{
			{"Exec", func() *Result { return db.MustExec("SELECT a, s FROM t") }},
			{"a subquery", func() *Result { return db.subSelect(stmt.(*SelectStmt)) }},
		} {
			r := run.fn()
			row, text, copied := r.Rows[1], r.Rows[1][1], keptRow(r.Rows[1])
			first, last := r.Rows[0][1], r.Rows[len(r.Rows)-1][1]
			run.fn()
			if got := first.S; got != "\xdd\xdd\xdd" {
				t.Errorf("%s: the first row's kept text reads %q after the next statement", run.name, got)
			}
			if got := last.S; got != strings.Repeat("\xdd", len(got)) || got == "" {
				t.Errorf("%s: the last row's kept text reads %q after the next statement", run.name, got)
			}
			if got := r.Rows[0][0].S; got != "POISON" {
				t.Errorf("%s: the kept Result reads %q after the next statement", run.name, got)
			}
			if got := row[0].S; got != "POISON" {
				t.Errorf("%s: the kept row reads %q after the next statement", run.name, got)
			}
			if got := text.S; got != "\xdd\xdd\xdd" {
				t.Errorf("%s: the kept text reads %q after the next statement", run.name, got)
			}
			if got := copied[1].S; got != "two" {
				t.Errorf("%s: the copy reads %q, want two", run.name, got)
			}
		}
	})
}

// TestStoredRowOutlivesEviction: a REPLACE reads the row it replaces and
// then deletes that row's index entries, one index at a time, and the
// first descents evict the table leaf the row was read from before the
// last key is built. storedRow decodes a copy of the record, so the keys
// deleted are the row's. Decoded from the leaf, under the scan guard they
// would read the 0xDD of a recycled frame, and the old entries would stay:
// an index would list a row twice. Runs without PoisonRows, under which
// every bind decodes a copy anyway.
func TestStoredRowOutlivesEviction(t *testing.T) {
	withDB(t, 8, func(db *DB) {
		db.pager.GuardScans()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT, b TEXT, c TEXT)")
		for i, cols := range []string{"a", "b", "c", "a, b", "b, c", "c, a"} {
			db.MustExec(fmt.Sprintf("CREATE INDEX t%d ON t (%s)", i, cols))
		}
		pad := strings.Repeat("p", 100)
		db.MustExec("BEGIN")
		for i := 1; i <= 300; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'a%d%s', 'b%d%s', 'c%d%s')", i, i, pad, i, pad, i, pad))
		}
		db.MustExec("COMMIT")
		for i := 10; i <= 300; i += 10 {
			db.MustExec(fmt.Sprintf("REPLACE INTO t VALUES (%d, 'x', 'y', 'z')", i))
		}
		for _, idx := range db.cat.TableIndexes("t") {
			n := 0
			NewIndexTree(db.pager, idx.Root).ScanIndexRange(nil, nil, func([]byte, int64) bool { n++; return true })
			if n != 300 {
				t.Errorf("index %s (%s) lists %d rows, want 300", idx.Name, strings.Join(idx.Cols, ", "), n)
			}
		}
		if db.pager.Stats.Misses < 1000 {
			t.Errorf("premise broken: %d cache misses", db.pager.Stats.Misses)
		}
	})
}

// TestArenaRunsNeverSpanChunks: every run an arena hands out lies in one
// chunk, with its own length as capacity, and keeps its values while the
// runs after it are handed out — a run longer than a chunk included, in a
// chunk of its own that a rewind drops. A Result whose rows and texts
// take several chunks reads back whole.
func TestArenaRunsNeverSpanChunks(t *testing.T) {
	a := newArena[Value](valueSize, 4*arenaChunk)
	for pass := range 3 {
		var runs [][]Value
		for i := range 3000 {
			n := 1 + i%7
			if i == 1500 {
				n = a.per + 3
			}
			run := a.alloc(n)
			if len(run) != n || cap(run) != n {
				t.Fatalf("pass %d: run %d has length %d, capacity %d, want %d", pass, i, len(run), cap(run), n)
			}
			for j := range run {
				run[j] = Int(int64(i))
			}
			runs = append(runs, run)
		}
		for i, run := range runs {
			in := 0
			for _, c := range a.inUse() {
				lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(c))), uintptr(unsafe.Pointer(unsafe.SliceData(c)))+uintptr(len(c)*valueSize)
				if p := uintptr(unsafe.Pointer(&run[0])); lo <= p && p+uintptr(len(run)*valueSize) <= hi {
					in++
				}
			}
			if in != 1 {
				t.Fatalf("pass %d: run %d lies in %d chunks in use", pass, i, in)
			}
			for _, v := range run {
				if v.I != int64(i) {
					t.Fatalf("pass %d: run %d reads %d: a later run overwrote it", pass, i, v.I)
				}
			}
		}
		a.rewind()
		if len(a.chunks) != a.keep {
			t.Fatalf("pass %d: %d chunks kept, want %d", pass, len(a.chunks), a.keep)
		}
		for _, c := range a.chunks {
			if cap(c) != a.per {
				t.Fatalf("pass %d: a chunk of %d values kept, want %d", pass, cap(c), a.per)
			}
		}
	}
	withDB(t, 64, func(db *DB) {
		fillScanTable(db, "t", 1000)
		r := db.MustExec("SELECT a, b, c FROM t")
		if f := db.frames[0]; len(f.cells.inUse()) < 2 || len(f.text.inUse()) < 2 {
			t.Fatalf("premise broken: %d value chunks, %d text chunks", len(f.cells.inUse()), len(f.text.inUse()))
		}
		for i, row := range r.Rows {
			if row[0].I != int64(i) || row[1].I != int64(i%97) || row[2].S != fmt.Sprintf("some text of row %d", i) {
				t.Fatalf("row %d reads %v", i, row)
			}
		}
	})
}

// speedtestInsert is the shape of speedtest1's most common statement.
const speedtestInsert = "INSERT INTO z1 VALUES (4711, 815277, 'four thousand seven hundred eleven......')"

// TestCompareIsATotalOrder: integers and reals compare exactly, so the
// order Compare gives ORDER BY, MIN and MAX is antisymmetric and transitive
// where float64 would merge neighbouring integers.
func TestCompareIsATotalOrder(t *testing.T) {
	const p53 = 1 << 53
	vals := []Value{
		Null(), Real(-1e300), Int(-1 << 63), Real(-1 << 63), Int(-3), Real(-2.5), Int(-2), Real(-0.5),
		Int(0), Real(0), Real(0.5), Int(2), Real(2), Real(2.5), Int(3),
		Int(p53 - 1), Int(p53), Real(p53), Int(p53 + 1), Int(p53 + 2), Real(p53 + 2),
		Int(1<<63 - 1), Real(1 << 63), Real(1e300), Text(""), Text("1"),
	}
	for _, a := range vals {
		for _, b := range vals {
			if ab, ba := Compare(a, b), Compare(b, a); ab != -ba {
				t.Errorf("Compare(%v, %v) = %d but reversed %d", a, b, ab, ba)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("%v <= %v <= %v but Compare(%v, %v) > 0", a, b, c, a, c)
				}
			}
		}
	}
	// The list above is in order, equal neighbours aside.
	if !slices.IsSortedFunc(vals, Compare) {
		t.Errorf("not in Compare order: %v", vals)
	}
}

// fillScanTable creates table name (a INTEGER, b INTEGER, c TEXT) with n
// rows, b never negative.
func fillScanTable(db *DB, name string, n int) {
	db.MustExec("CREATE TABLE " + name + " (a INTEGER, b INTEGER, c TEXT)")
	db.MustExec("BEGIN")
	for i := 0; i < n; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, 'some text of row %d')", name, i, i%97, i))
	}
	db.MustExec("COMMIT")
}

// TestRowPathAllocations gates what a row costs in heap objects, exactly:
// per row visited, emitted, aggregated, updated, deleted and checked, per
// row inserted, per statement parsed, and per statement that keeps state
// of its own (groups, index bounds, a subquery, splits, the journal). A
// per-row count is the difference between a statement over 1 000 rows and
// the same statement over 2 000.
func TestRowPathAllocations(t *testing.T) {
	perRow := func(what string, small, big, want int) {
		t.Helper()
		if d := big - small; d/1000 != want || d%1000 > 8 {
			t.Errorf("%s: %d allocations over 1000 rows, %d over 2000: %.3f a row, want %d",
				what, small, big, float64(d)/1000, want)
		}
	}
	withDB(t, 256, func(db *DB) {
		fillScanTable(db, "t1000", 1000)
		fillScanTable(db, "t2000", 2000)
		run := func(sql string) {
			for more := true; more; {
				var stmt string
				stmt, sql, more = strings.Cut(sql, "; ")
				if stmt == "ROLLBACK" { // the pager's: the grammar has none
					db.pager.Rollback()
					continue
				}
				db.MustExec(stmt)
			}
		}
		allocs := func(sql string) int {
			return int(testing.AllocsPerRun(10, func() { run(sql) }))
		}
		on := func(sql string) (int, int) { // sql names the table {t}
			return allocs(strings.ReplaceAll(sql, "{t}", "t1000")), allocs(strings.ReplaceAll(sql, "{t}", "t2000"))
		}
		// Scans whose WHERE rejects every row, reading an integer, reading
		// text in place, matching text: not one object, of the rows or the
		// statement, over a thousand rows or two.
		for _, where := range []string{"b < 0", "c < ''", "c LIKE 'x%'"} {
			if small, big := on("SELECT c FROM {t} WHERE " + where); small != 0 || big != 0 {
				t.Errorf("rejecting scan, WHERE %s: %d allocations over 1000 rows, %d over 2000, want 0", where, small, big)
			}
		}
		// The same scan emitting one text column: nothing, the row and its
		// text go into the arenas of the DB's Result, which the first run
		// grew.
		small, big := on("SELECT c FROM {t} WHERE b >= 0")
		perRow("emitting scan", small, big, 0)
		// Every row updated, and every row deleted — under a rollback, so
		// that each run finds them again: the hits are staged in the DB's
		// buffer and bound from there, the new row built in its scratch.
		small, big = on("UPDATE {t} SET b = b + 1")
		perRow("UPDATE of every row", small, big, 0)
		small, big = on("BEGIN; DELETE FROM {t}; ROLLBACK")
		perRow("DELETE of every row", small, big, 0)
		// An aggregate over every row: a new greatest text is copied into
		// the aggregate's own bytes, which the first run grew.
		small, big = on("SELECT max(c) FROM {t}")
		perRow("max(c) over every row", small, big, 0)
		// The sum of a text column that holds no number: each text is read
		// as 0 without asking strconv, whose error was 2 objects a row.
		small, big = on("SELECT sum(c) FROM {t}")
		perRow("sum(c) over every row", small, big, 0)

		// Statements with state of their own — aggregate groups, index
		// range bounds, a subquery, a journal — each exactly nothing once
		// the DB has run it: that state lives in the frame of its level,
		// the join level or the file system, and is reused.
		db.MustExec("CREATE INDEX t2000b ON t2000 (b)")
		for _, sql := range []string{
			"SELECT count(*) FROM t2000 WHERE b BETWEEN 10 AND 20",
			"SELECT count(*) FROM t2000 WHERE b = 15",
			"SELECT count(*) FROM t2000 WHERE b BETWEEN 200 AND 300",
			"SELECT length(c), count(*) FROM t2000 GROUP BY length(c) ORDER BY 1",
			"SELECT count(*) FROM t2000 WHERE b > (SELECT avg(b) FROM t2000)",
			"SELECT min(c), max(c) FROM t2000",
			// The operator applied to the values: no nodes built per group.
			"SELECT b, count(*) + 1 FROM t2000 GROUP BY b",
			"UPDATE t2000 SET a = a WHERE rowid = 7", // autocommit: the journal is created and deleted
		} {
			if got := allocs(sql); got != 0 {
				t.Errorf("%q: %d allocations, want 0", sql, got)
			}
		}
		// Rows with 1 000-byte keys into an empty table with an index on
		// them, rolled back for the next run: the index splits its leaves,
		// and the splits cascade up a tree three levels deep. Each level's
		// split is the pager's of the run before.
		db.MustExec("CREATE TABLE zs (a INTEGER, b INTEGER, c TEXT)")
		db.MustExec("CREATE INDEX zsc ON zs (c)")
		var split strings.Builder
		split.WriteString("BEGIN")
		for i := range 40 {
			fmt.Fprintf(&split, "; INSERT INTO zs VALUES (%d, %d, '%03d%s')", i, i, (i*7)%40, strings.Repeat("k", 1000))
		}
		if got := allocs(split.String() + "; ROLLBACK"); got != 0 {
			t.Errorf("40 INSERTs that split an index three levels deep: %d allocations, want 0", got)
		}
		run(split.String())
		root, depth := db.cat.TableIndexes("zs")[0].Root, 0
		for n := db.pager.node(root); n.typ() != pgIndexLeaf; n = db.pager.node(n.child(0)) {
			depth++
		}
		db.pager.Rollback()
		if depth < 2 {
			t.Errorf("premise broken: 40 keys make an index of depth %d, want a split below the root's children", depth)
		}

		// One 3-column row into a table with one index, inside a
		// transaction: nothing, of the row, the statement or its Result. A
		// split now and then is below AllocsPerRun's integer average.
		db.MustExec("CREATE TABLE z1 (a INTEGER, b INTEGER, c TEXT)")
		db.MustExec("CREATE INDEX z1b ON z1 (b)")
		db.MustExec("BEGIN")
		if got := testing.AllocsPerRun(300, func() { db.MustExec(speedtestInsert) }); got != 0 {
			t.Errorf("INSERT of one row with one index: %v allocations, want 0", got)
		}
		// Statements run from a buffer their caller rewrites for the next, as
		// speedtest's are: Exec keeps nothing of the text — the Result copies
		// its column names into its arena — so the text costs nothing.
		var buf []byte
		for _, sql := range []string{speedtestInsert, "SELECT b, c, length(c) FROM z1 WHERE a = 4711"} {
			if got := testing.AllocsPerRun(300, func() {
				buf = append(buf[:0], sql...)
				db.MustExec(view(buf))
			}); got != 0 {
				t.Errorf("%q from a reused buffer: %v allocations, want 0", sql, got)
			}
		}
		db.MustExec("COMMIT")
		// The same statement parsed as Exec parses it, by a parser that has
		// parsed before: nothing, its nodes, statement and lists are the last
		// statement's. A parser with nothing to reuse stays at 9.
		if got := testing.AllocsPerRun(320, func() { db.parser.parse(speedtestInsert) }); got != 0 {
			t.Errorf("parse of %q by Exec's parser: %v allocations, want 0", speedtestInsert, got)
		}
		if got := testing.AllocsPerRun(100, func() { Parse(speedtestInsert) }); got > 9 {
			t.Errorf("Parse(%q): %v allocations, want at most 9", speedtestInsert, got)
		}
		if db.pager.Stats.Misses != 0 {
			t.Errorf("premise broken: %d cache misses", db.pager.Stats.Misses)
		}
	})
	// A warm transaction that journals more pages than an eight-page cache
	// holds: nothing at all. Each pre-image goes back to the free list once
	// the journal holds it, so a transaction's are the buffers of the one
	// before, and the journal file it creates, grows and deletes is the
	// inode, page list and name RAMFS kept from the last one's.
	withPager(t, 8, func(p *Pager) {
		for range 48 {
			initBtreePage(p.Write(p.Allocate()), pgTableLeaf)
		}
		if err := p.flushAll(); err != nil {
			t.Fatal(err)
		}
		txn := func(pages uint32) int {
			journaled := p.Stats.JournalPages
			allocs := testing.AllocsPerRun(10, func() {
				p.Begin()
				for pgno := uint32(2); pgno < 2+pages; pgno++ {
					p.Write(pgno)[PageSize-1]++
				}
				if err := p.Commit(); err != nil {
					t.Fatal(err)
				}
			})
			if got := (p.Stats.JournalPages - journaled) / 11; got != uint64(pages) {
				t.Errorf("premise broken: %d pages journaled a transaction, want %d", got, pages)
			}
			return int(allocs)
		}
		if small, big := txn(24), txn(48); small != 0 || big != 0 {
			t.Errorf("warm transaction: %d allocations journaling 24 pages, %d journaling 48, want 0", small, big)
		}
	})
	// PRAGMA integrity_check validates every record in place, in a
	// database holding one table of each size.
	var checks [2]int
	for i, n := range []int{1000, 2000} {
		withDB(t, 256, func(db *DB) {
			fillScanTable(db, "t", n)
			db.MustExec("CREATE INDEX tc ON t (c)")
			checks[i] = int(testing.AllocsPerRun(10, func() { db.MustExec("PRAGMA integrity_check") }))
		})
	}
	perRow("PRAGMA integrity_check", checks[0], checks[1], 0)
}

// BenchmarkFilteredScan is a 1000-row full scan whose WHERE rejects every
// row; TestRowPathAllocations gates its allocations at 0.
func BenchmarkFilteredScan(b *testing.B) {
	withDB(b, 256, func(db *DB) {
		fillScanTable(db, "t", 1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := db.MustExec("SELECT c FROM t WHERE b < 0"); len(r.Rows) != 0 {
				b.Fatal("a row passed the filter")
			}
		}
	})
}

// BenchmarkParseInsert parses speedtest1's most common statement the way
// Exec does, with a parser that lives as long as the database.
func BenchmarkParseInsert(b *testing.B) {
	var p parser
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.parse(speedtestInsert)
	}
}
