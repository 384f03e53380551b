package sqldb

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// DB is one open database connection.
type DB struct {
	e     *cubicle.Env
	vfs   *vfscore.Client
	pager *Pager
	cat   *Catalog
	rand  uint64
	// autoTxn marks that the currently open transaction is implicit
	// (statement-level autocommit).
	autoTxn bool
	// Statements counts executed statements.
	Statements uint64

	// parser lexes and parses every statement of Exec into nodes, statement
	// structs and lists it hands out again for the next one.
	parser parser
	// rowBuf, recBuf and keyBuf are the row being assembled, its record and
	// one of its index keys on the way to the B+tree, which copies them into
	// a page: each is dead by the time the next one is built.
	rowBuf []Value
	recBuf []byte
	keyBuf []byte
	// hits holds the rows an UPDATE or DELETE changes (scanFiltered).
	hits arena[byte]
	// stored binds the row checkRowid finds in the table to a copy of
	// its record, storedRec (storedRow); both are dead once that row's
	// index entries are deleted.
	stored    tblCtx
	storedRec []byte
	// frames holds a frame for each level of statement nesting reached so
	// far, depth the number of levels entered: frames[0].res is the Result
	// Exec returns.
	frames []*frame
	depth  int
	// afterRow, set only by tests, runs on a bind when the callback of the
	// row bound to it has returned, onRewind on a frame about to be
	// rewound; onParse sees every statement Exec parses, before it runs,
	// and ownText gives Exec the text to run in place of its argument and
	// what to call once it returns.
	afterRow func(*tblCtx)
	onRewind func(*frame)
	onParse  func(sql string, stmt any)
	ownText  func(sql string) (string, func())
}

// Open opens (or creates) the database at path. ioBuf must be a
// page-aligned buffer of at least PageSize bytes owned by the calling
// cubicle, with windows open for VFSCORE and the file-system backend.
// cacheCap is the page-cache capacity in pages.
func Open(e *cubicle.Env, vfs *vfscore.Client, path string, ioBuf vm.Addr, cacheCap int) (*DB, error) {
	pager, err := OpenPager(e, vfs, path, ioBuf, cacheCap)
	if err != nil {
		return nil, err
	}
	cat, err := LoadCatalog(pager)
	if err != nil {
		return nil, err
	}
	db := &DB{e: e, vfs: vfs, pager: pager, cat: cat, rand: 0x853C49E6748FEA9B}
	db.hits = newArena[byte](1, db.arenaBytes())
	return db, nil
}

// Close flushes and closes the database. No run closes one; it stays
// because it is what makes a session's writes durable.
func (db *DB) Close() error { return db.pager.Close() }

// Pager exposes pager statistics to the benchmark harness.
func (db *DB) Pager() *Pager { return db.pager }

func (db *DB) nextRand() uint64 {
	x := db.rand
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	db.rand = x
	return x * 0x2545F4914F6CDD1D
}

// Exec parses and executes one SQL statement. It keeps nothing of sql once
// it returns — the catalog and the Result copy the names they take from it
// — so the caller may reuse sql's bytes for the next statement.
func (db *DB) Exec(sql string) (res *Result, err error) {
	if db.ownText != nil {
		var done func()
		sql, done = db.ownText(sql)
		defer done()
	}
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(execErr); ok {
				res, err = nil, ee.err
				if db.pager.InTxn() && db.autoTxn {
					db.pager.Rollback()
					db.autoTxn = false
				}
				return
			}
			panic(r)
		}
	}()
	db.e.Work(workParseSQL)
	db.Statements++
	db.depth = 0
	f := db.enter() // the last Result is dead from here on
	stmt := db.parser.parse(sql)
	if db.onParse != nil {
		db.onParse(sql, stmt)
	}
	if err := db.exec(f, stmt); err != nil {
		return nil, err
	}
	return f.res, nil
}

// exec runs stmt in f, the top level's frame, whose Result it fills.
func (db *DB) exec(f *frame, stmt any) error {
	switch s := stmt.(type) {
	case *SelectStmt:
		db.execSelect(f, s)
		return nil
	case *TxnStmt:
		if s.Kind == "begin" {
			return db.pager.Begin()
		}
		return db.pager.Commit()
	case *PragmaStmt:
		return db.execPragma(f, s)
	}
	// Everything else mutates: wrap in an automatic transaction when no
	// explicit one is open (SQLite autocommit).
	implicit := !db.pager.InTxn()
	if implicit {
		if err := db.pager.Begin(); err != nil {
			return err
		}
		db.autoTxn = true
	}
	err := db.execMut(f, stmt)
	if implicit {
		db.autoTxn = false
		if err == nil {
			err = db.pager.Commit()
		}
		if err != nil {
			db.pager.Rollback() // one that fails leaves the journal for the next open
		}
	}
	return err
}

func (db *DB) execMut(f *frame, stmt any) error {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		_, err := db.cat.CreateTable(s.Name, s.Cols, s.RowidCol)
		return err
	case *CreateIndexStmt:
		return db.execCreateIndex(f, s)
	case *AlterAddColumnStmt:
		return db.cat.AddColumn(s.Table, s.Col)
	case *InsertStmt:
		return db.execInsert(f, s)
	case *UpdateStmt:
		return db.execUpdate(f, s)
	case *DeleteStmt:
		return db.execDelete(f, s)
	}
	return fmt.Errorf("sqldb: unsupported statement %T", stmt)
}

// --- INSERT -------------------------------------------------------------------

// blankRow returns the row scratch as an all-NULL row of t.
func (db *DB) blankRow(t *Table) []Value {
	db.rowBuf = slices.Grow(db.rowBuf[:0], len(t.Columns))[:len(t.Columns)]
	clear(db.rowBuf)
	return db.rowBuf
}

// insertRowValues assembles, in the row scratch, the row of t that puts
// the value of row[i] in the column cols[i] names, or in t's i-th column
// when cols is empty. The expressions are evaluated in order, each once.
func (db *DB) insertRowValues(t *Table, cols []string, row []Expr) []Value {
	vals := db.blankRow(t)
	if len(cols) == 0 {
		if len(row) != len(t.Columns) {
			fail("table %s has %d columns but %d values supplied", t.Name, len(t.Columns), len(row))
		}
		for i, e := range row {
			vals[i] = db.eval(nil, e)
		}
		return vals
	}
	if len(cols) != len(row) {
		fail("%d columns but %d values", len(cols), len(row))
	}
	for i, c := range cols {
		ci := t.ColIndex(c)
		if ci < 0 {
			fail("no such column %s.%s", t.Name, c)
		}
		vals[ci] = db.eval(nil, row[i])
	}
	return vals
}

// insertRow writes one assembled row, maintaining rowid and indexes.
// Returns the rowid used.
func (db *DB) insertRow(t *Table, vals []Value, replace bool) int64 {
	tree := NewTableTree(db.pager, t.Root)
	given := t.RowidCol >= 0 && !vals[t.RowidCol].IsNull()
	var rowid int64
	if given {
		rowid = vals[t.RowidCol].I
	} else {
		if rowid = tree.MaxRowid(); rowid == math.MaxInt64 {
			fail("database or disk is full") // SQLite's answer when no rowid is left above the largest
		}
		rowid++
		if t.RowidCol >= 0 {
			vals[t.RowidCol] = Int(rowid)
		}
	}
	if given {
		db.checkRowid(t, tree, rowid, replace)
	}
	db.writeRow(t, tree, rowid, vals)
	return rowid
}

// checkRowid is the conflict check of a row of t going to rowid, before
// anything of it is written: a row already there fails the statement or,
// with replace, has its index entries deleted, to be overwritten.
func (db *DB) checkRowid(t *Table, tree *Btree, rowid int64, replace bool) {
	if existing := db.storedRow(tree, t, rowid); existing != nil {
		if !replace {
			fail("UNIQUE constraint failed: %s rowid %d", t.Name, rowid)
		}
		db.deleteIndexEntries(t, rowid, existing)
	}
}

// writeRow writes row vals of t at rowid, and its index entries.
func (db *DB) writeRow(t *Table, tree *Btree, rowid int64, vals []Value) {
	if err := tree.InsertRow(rowid, db.record(vals)); err != nil {
		fail("%v", err)
	}
	for _, idx := range db.cat.TableIndexes(t.Name) {
		itree := NewIndexTree(db.pager, idx.Root)
		if err := itree.InsertKey(db.indexKey(t, idx, vals), rowid); err != nil {
			fail("%v", err)
		}
	}
}

// scratch returns buf emptied for reuse, or nothing when it has grown past
// what a page can hold: a statement's oversized row is not kept around.
func scratch(buf []byte) []byte {
	if cap(buf) > PageSize {
		return nil
	}
	return buf[:0]
}

// record serialises a row into the record scratch.
func (db *DB) record(vals []Value) []byte {
	db.recBuf = appendRecord(scratch(db.recBuf), vals)
	return db.recBuf
}

// indexKey builds the encoded key of idx for a row, in the key scratch.
func (db *DB) indexKey(t *Table, idx *Index, vals []Value) []byte {
	db.keyBuf = scratch(db.keyBuf)
	for _, c := range idx.Cols {
		db.keyBuf = appendKey(db.keyBuf, vals[t.ColIndex(c)])
	}
	return db.keyBuf
}

// storedRow returns the row of t stored at rowid, or nil, decoded from a
// copy of its record taken while the leaf was pinned: the caller's writes
// come after the read. The slice and its text are the stored-row scratch,
// dead at the next call.
func (db *DB) storedRow(tree *Btree, t *Table, rowid int64) []Value {
	if !tree.Row(rowid, func(record []byte) { db.storedRec = append(db.storedRec[:0], record...) }) {
		return nil
	}
	db.stored.tbl = t
	db.bindRow(&db.stored, rowid, db.storedRec)
	return db.stored.vals
}

// deleteIndexEntries removes all index entries of the row vals.
func (db *DB) deleteIndexEntries(t *Table, rowid int64, vals []Value) {
	for _, idx := range db.cat.TableIndexes(t.Name) {
		NewIndexTree(db.pager, idx.Root).DeleteKey(db.indexKey(t, idx, vals), rowid)
	}
}

func (db *DB) execInsert(f *frame, s *InsertStmt) error {
	t := db.cat.Table(s.Table)
	if t == nil {
		return fmt.Errorf("sqldb: no such table %s", s.Table)
	}
	for _, row := range s.Rows {
		f.res.LastRowid = db.insertRow(t, db.insertRowValues(t, s.Cols, row), s.Replace)
		f.res.RowsAffected++
	}
	return nil
}

// --- UPDATE / DELETE ----------------------------------------------------------

func (db *DB) execUpdate(f *frame, s *UpdateStmt) error {
	t := db.cat.Table(s.Table)
	if t == nil {
		return fmt.Errorf("sqldb: no such table %s", s.Table)
	}
	tree := NewTableTree(db.pager, t.Root)
	db.scanFiltered(f, t, s.Where)
	old, rc := f.binds[0], &f.rc // the scan's bind, rebound to each hit
	for at := (hitCursor{}); db.nextHit(old, &at); {
		newVals := append(db.rowBuf[:0], old.vals...)
		db.rowBuf = newVals
		newRowid := old.rowid
		for _, set := range s.Sets {
			ci := t.ColIndex(set.Col)
			if ci < 0 {
				return fmt.Errorf("sqldb: no such column %s.%s", t.Name, set.Col)
			}
			v := db.eval(rc, set.E)
			newVals[ci] = v
			if ci == t.RowidCol {
				if v.Kind != KInt {
					return fmt.Errorf("sqldb: rowid must be an integer")
				}
				newRowid = v.I
			}
		}
		// A rowid the row moves to goes through INSERT's conflict check
		// before the old row is touched, so a failing row writes nothing.
		moved := newRowid != old.rowid
		if moved {
			db.checkRowid(t, tree, newRowid, false)
		}
		db.deleteIndexEntries(t, old.rowid, old.vals)
		if moved {
			tree.DeleteRow(old.rowid)
		}
		db.writeRow(t, tree, newRowid, newVals)
		f.res.RowsAffected++
	}
	return nil
}

func (db *DB) execDelete(f *frame, s *DeleteStmt) error {
	t := db.cat.Table(s.Table)
	if t == nil {
		return fmt.Errorf("sqldb: no such table %s", s.Table)
	}
	tree := NewTableTree(db.pager, t.Root)
	db.scanFiltered(f, t, s.Where)
	for row, at := f.binds[0], (hitCursor{}); db.nextHit(row, &at); {
		db.deleteIndexEntries(t, row.rowid, row.vals)
		tree.DeleteRow(row.rowid)
		f.res.RowsAffected++
	}
	return nil
}

// --- CREATE INDEX ---------------------------------------------------------------

func (db *DB) execCreateIndex(f *frame, s *CreateIndexStmt) error {
	idx, err := db.cat.CreateIndex(s.Name, s.Table, s.Cols)
	if err != nil {
		return err
	}
	// Populate from existing rows.
	t := db.cat.Table(s.Table)
	tree := NewTableTree(db.pager, t.Root)
	itree := NewIndexTree(db.pager, idx.Root)
	var ierr error
	row := f.bind(0, t)
	tree.ScanTable(func(rowid int64, record []byte) bool {
		db.bindRow(row, rowid, record)
		ierr = itree.InsertKey(db.indexKey(t, idx, row.vals), rowid)
		return ierr == nil
	})
	return ierr
}

// --- PRAGMA ---------------------------------------------------------------------

func (db *DB) execPragma(f *frame, s *PragmaStmt) error {
	switch s.Name {
	case "integrity_check":
		var problems []string
		problems = append(problems, NewTableTree(db.pager, db.pager.CatalogRoot()).Check()...)
		for _, name := range db.cat.Tables() {
			t := db.cat.Table(name)
			problems = append(problems, NewTableTree(db.pager, t.Root).Check()...)
			for _, idx := range db.cat.TableIndexes(name) {
				problems = append(problems, NewIndexTree(db.pager, idx.Root).Check()...)
			}
		}
		*f.res = Result{Cols: []string{"integrity_check"}}
		if len(problems) == 0 {
			f.res.Rows = [][]Value{{Text("ok")}}
		} else {
			for _, p := range problems {
				f.res.Rows = append(f.res.Rows, []Value{Text(p)})
			}
		}
		return nil
	case "page_count":
		*f.res = Result{Cols: []string{"page_count"},
			Rows: [][]Value{{Int(int64(db.pager.NPages()))}}}
		return nil
	}
	return fmt.Errorf("sqldb: unsupported pragma %s", s.Name)
}

// --- SELECT ---------------------------------------------------------------------

// execSelect runs a SELECT into f's Result.
func (db *DB) execSelect(f *frame, s *SelectStmt) {
	res := f.res
	// Bind tables.
	for i, fi := range s.From {
		t := db.cat.Table(fi.Table)
		if t == nil {
			fail("no such table %s", fi.Table)
		}
		f.bind(i, t)
	}
	binds := f.binds[:len(s.From)]
	// Column headers, copied: the statement's text dies with Exec.
	for _, c := range s.Cols {
		if ec, named := c.Expr.(*ECol); named {
			res.Cols = append(res.Cols, keepText(f, ec.Name))
		} else {
			var name [24]byte
			res.Cols = append(res.Cols, keepText(f, strconv.AppendInt(append(name[:0], "col"...), int64(len(res.Cols)+1), 10)))
		}
	}

	f.conj = appendConjuncts(f.conj[:0], s.Where)

	// ORDER BY terms that do not name an output column are appended as
	// hidden result columns, computed per row and stripped after sorting.
	width := len(s.Cols)
	allCols := append(f.cols[:0], s.Cols...)
	f.okeys = f.okeys[:0]
	for _, oi := range s.OrderBy {
		idx := -1
		switch x := oi.Expr.(type) {
		case *ELit:
			if x.V.Kind == KInt && x.V.I >= 1 && int(x.V.I) <= width {
				idx = int(x.V.I) - 1
			}
		case *ECol:
			for ci := 0; ci < width; ci++ {
				if strings.EqualFold(res.Cols[ci], x.Name) {
					idx = ci
					break
				}
			}
		}
		if idx < 0 {
			idx = len(allCols)
			allCols = append(allCols, SelectCol{Expr: oi.Expr})
		}
		f.okeys = append(f.okeys, okey{idx: idx, desc: oi.Desc})
	}
	f.cols = allCols

	// calls are the aggregate calls of the select list and its hidden
	// columns: a query with one, or with GROUP BY, is an aggregate query.
	f.calls = f.calls[:0]
	for _, c := range allCols {
		walkExpr(c.Expr, func(e Expr) bool {
			if x, ok := e.(*EFunc); ok && isAggFn(x.Name) {
				f.calls = append(f.calls, x)
				return false
			}
			return true
		})
	}
	aggregate := len(s.GroupBy) > 0 || len(f.calls) > 0
	if aggregate {
		if len(f.groups) > f.groupSlab.keep*f.groupSlab.per {
			f.groups = nil
		}
		if f.groups == nil {
			f.groups = make(map[string]*group)
		}
		clear(f.groups) // its keys were texts of the rewound arena
		f.order = f.order[:0]
	}

	emit := func(rc *rowCtx) bool {
		db.e.Work(workRowFilter)
		if aggregate {
			f.key = f.key[:0]
			for _, ge := range s.GroupBy {
				f.key = appendGroupKey(f.key, db.eval(rc, ge))
			}
			g, ok := f.groups[string(f.key)]
			if !ok {
				// A new group keeps its key and a copy of its first row, which
				// the columns that are not aggregates read.
				g = f.newGroup(rc.tables)
				f.groups[keepText(f, f.key)] = g
				f.order = append(f.order, g)
			}
			for i, x := range f.calls {
				if x.Star {
					g.states[i].add(Int(1))
				} else if len(x.Args) > 0 {
					g.states[i].add(db.eval(rc, x.Args[0]))
				}
			}
			return true
		}
		db.projectRow(f, rc, allCols)
		// Fast-path LIMIT without ORDER BY.
		if s.Limit >= 0 && len(s.OrderBy) == 0 && int64(len(res.Rows)) >= s.Limit {
			return false
		}
		return true
	}

	db.join(f, len(binds), f.conj, emit)

	if aggregate {
		if len(s.GroupBy) == 0 && len(f.order) == 0 {
			// Aggregates over an empty set still produce one row.
			f.order = append(f.order, f.newGroup(nil))
		}
		for _, g := range f.order {
			db.projectRow(f, f.groupRow(binds, g), allCols)
		}
	}

	if len(s.OrderBy) > 0 {
		slices.SortStableFunc(res.Rows, func(a, b []Value) int {
			db.e.Work(workPerCompare)
			for _, k := range f.okeys {
				cmp := Compare(a[k.idx], b[k.idx])
				if k.desc {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp
				}
			}
			return 0
		})
	}
	if s.Limit >= 0 && int64(len(res.Rows)) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	// Strip hidden ORDER BY columns.
	if len(allCols) > width {
		for i := range res.Rows {
			res.Rows[i] = res.Rows[i][:width:width]
		}
	}
}

// projectRow evaluates the select list for one row, or one group when rc
// is a group's, and adds the row to f's Result, which outlives the bound
// rows: every value is copied out of them, into f's arenas.
func (db *DB) projectRow(f *frame, rc *rowCtx, cols []SelectCol) {
	row := f.cells.alloc(len(cols))
	for i, c := range cols {
		row[i] = f.keep(db.project(rc, c.Expr))
	}
	f.res.Rows = append(f.res.Rows, row)
}

// project evaluates a select-list expression in rc. Over a group an
// aggregate call is its result, and EBin applies its operator to its
// operands' values as literals, which is what such a column has always
// cost on the clock; eval finds any other aggregate call's value in
// rc.group.
func (db *DB) project(rc *rowCtx, e Expr) Value {
	if rc.group != nil {
		switch x := e.(type) {
		case *EFunc:
			if isAggFn(x.Name) {
				return rc.group.result(x)
			}
		case *EBin:
			// The operator on the operands' values, charged as evalBin
			// evaluating them as literals is.
			l, r := db.project(rc, x.L), db.project(rc, x.R)
			db.e.WorkN(workRowFilter/4, operands(x.Op, l))
			return applyBin(x.Op, l, r)
		}
	}
	return db.eval(rc, e)
}
