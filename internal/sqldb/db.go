package sqldb

import (
	"fmt"
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
	hits []byte
	// stored binds the row insertRow's conflict checks find in the table
	// to a copy of its record, storedRec (storedRow); both are dead once
	// that row's index entries are deleted.
	stored    tblCtx
	storedRec []byte
	// afterRow, set only by tests, runs on a bind when the callback of the
	// row bound to it has returned; onParse sees every statement Exec
	// parses, before it runs.
	afterRow func(*tblCtx)
	onParse  func(sql string, stmt any)
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
	return &DB{e: e, vfs: vfs, pager: pager, cat: cat, rand: 0x853C49E6748FEA9B}, nil
}

// Close flushes and closes the database.
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

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string) (res *Result, err error) {
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
	stmt, perr := db.parser.parse(sql)
	if perr != nil {
		return nil, perr
	}
	if db.onParse != nil {
		db.onParse(sql, stmt)
	}
	return db.exec(stmt)
}

// MustExec is Exec that fails hard; for tests and workloads.
func (db *DB) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return r
}

func (db *DB) exec(stmt any) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return db.execSelect(s, nil), nil
	case *TxnStmt:
		switch s.Kind {
		case "begin":
			if err := db.pager.Begin(); err != nil {
				return nil, err
			}
		case "commit":
			if err := db.pager.Commit(); err != nil {
				return nil, err
			}
		case "rollback":
			if err := db.pager.Rollback(); err != nil {
				return nil, err
			}
		}
		return &Result{}, nil
	case *PragmaStmt:
		return db.execPragma(s)
	}
	// Everything else mutates: wrap in an automatic transaction when no
	// explicit one is open (SQLite autocommit).
	implicit := !db.pager.InTxn()
	if implicit {
		if err := db.pager.Begin(); err != nil {
			return nil, err
		}
		db.autoTxn = true
	}
	res, err := db.execMut(stmt)
	if implicit {
		db.autoTxn = false
		if err != nil {
			db.pager.Rollback()
			return nil, err
		}
		if cerr := db.pager.Commit(); cerr != nil {
			return nil, cerr
		}
	}
	return res, err
}

func (db *DB) execMut(stmt any) (*Result, error) {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		if _, err := db.cat.CreateTable(s.Name, s.Cols, s.RowidCol); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		return db.execCreateIndex(s)
	case *DropStmt:
		if s.Kind == "table" {
			if err := db.cat.DropTable(s.Name); err != nil {
				return nil, err
			}
		} else {
			if err := db.cat.DropIndex(s.Name); err != nil {
				return nil, err
			}
		}
		return &Result{}, nil
	case *AlterAddColumnStmt:
		if err := db.cat.AddColumn(s.Table, s.Col); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *InsertStmt:
		return db.execInsert(s)
	case *UpdateStmt:
		return db.execUpdate(s)
	case *DeleteStmt:
		return db.execDelete(s)
	}
	return nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
}

// --- INSERT -------------------------------------------------------------------

// blankRow returns the row scratch as an all-NULL row of t.
func (db *DB) blankRow(t *Table) []Value {
	db.rowBuf = slices.Grow(db.rowBuf[:0], len(t.Columns))[:len(t.Columns)]
	clear(db.rowBuf)
	return db.rowBuf
}

// insertRowValues assembles a full column-ordered row from an insert
// statement, in the row scratch.
func (db *DB) insertRowValues(t *Table, cols []string, exprs []Expr, rc *rowCtx) []Value {
	vals := db.blankRow(t)
	if len(cols) == 0 {
		if len(exprs) != len(t.Columns) {
			fail("table %s has %d columns but %d values supplied", t.Name, len(t.Columns), len(exprs))
		}
		for i, e := range exprs {
			vals[i] = db.eval(rc, e)
		}
		return vals
	}
	if len(cols) != len(exprs) {
		fail("%d columns but %d values", len(cols), len(exprs))
	}
	for i, c := range cols {
		ci := t.ColIndex(c)
		if ci < 0 {
			fail("no such column %s.%s", t.Name, c)
		}
		vals[ci] = db.eval(rc, exprs[i])
	}
	return vals
}

// insertRow writes one assembled row, maintaining rowid and indexes.
// Returns the rowid used.
func (db *DB) insertRow(t *Table, vals []Value, replace bool) int64 {
	tree := NewTableTree(db.pager, t.Root)
	var rowid int64
	if t.RowidCol >= 0 && !vals[t.RowidCol].IsNull() {
		rowid = vals[t.RowidCol].I
		if existing := db.storedRow(tree, t, rowid); existing != nil {
			if !replace {
				fail("UNIQUE constraint failed: %s rowid %d", t.Name, rowid)
			}
			db.deleteIndexEntries(t, rowid, existing)
		}
	} else {
		rowid = tree.MaxRowid() + 1
		if t.RowidCol >= 0 {
			vals[t.RowidCol] = Int(rowid)
		}
	}
	// Unique secondary index checks.
	for _, idx := range db.cat.TableIndexes(t.Name) {
		if !idx.Unique {
			continue
		}
		key := db.indexKey(t, idx, vals)
		itree := NewIndexTree(db.pager, idx.Root)
		var conflict int64 = -1
		itree.ScanIndexRange(key, key, func(k []byte, rid int64) bool {
			if rid != rowid {
				conflict = rid
			}
			return false
		})
		if conflict >= 0 {
			if !replace {
				fail("UNIQUE constraint failed: index %s", idx.Name)
			}
			if old := db.storedRow(tree, t, conflict); old != nil {
				db.deleteIndexEntries(t, conflict, old)
				tree.DeleteRow(conflict)
			}
		}
	}
	if err := tree.InsertRow(rowid, db.record(vals)); err != nil {
		fail("%v", err)
	}
	for _, idx := range db.cat.TableIndexes(t.Name) {
		itree := NewIndexTree(db.pager, idx.Root)
		if err := itree.InsertKey(db.indexKey(t, idx, vals), rowid); err != nil {
			fail("%v", err)
		}
	}
	return rowid
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

func (db *DB) execInsert(s *InsertStmt) (*Result, error) {
	t := db.cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: no such table %s", s.Table)
	}
	res := &Result{}
	if s.FromSelect != nil {
		sub := db.execSelect(s.FromSelect, nil)
		for _, row := range sub.Rows {
			vals := db.blankRow(t)
			if len(s.Cols) == 0 {
				if len(row) != len(t.Columns) {
					return nil, fmt.Errorf("sqldb: SELECT yields %d columns, table has %d", len(row), len(t.Columns))
				}
				copy(vals, row)
			} else {
				for i, c := range s.Cols {
					vals[t.ColIndex(c)] = row[i]
				}
			}
			res.LastRowid = db.insertRow(t, vals, s.Replace)
			res.RowsAffected++
		}
		return res, nil
	}
	for _, row := range s.Rows {
		vals := db.insertRowValues(t, s.Cols, row, nil)
		res.LastRowid = db.insertRow(t, vals, s.Replace)
		res.RowsAffected++
	}
	return res, nil
}

// --- UPDATE / DELETE ----------------------------------------------------------

func (db *DB) execUpdate(s *UpdateStmt) (*Result, error) {
	t := db.cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: no such table %s", s.Table)
	}
	res := &Result{}
	tree := NewTableTree(db.pager, t.Root)
	old := &tblCtx{alias: s.Table, tbl: t}
	rc := &rowCtx{tables: []*tblCtx{old}}
	for hits := db.scanFiltered(t, s.Table, s.Where); len(hits) > 0; {
		hits = db.nextHit(old, hits)
		newVals := append(db.rowBuf[:0], old.vals...)
		db.rowBuf = newVals
		newRowid := old.rowid
		for _, set := range s.Sets {
			ci := t.ColIndex(set.Col)
			if ci < 0 {
				return nil, fmt.Errorf("sqldb: no such column %s.%s", t.Name, set.Col)
			}
			v := db.eval(rc, set.E)
			newVals[ci] = v
			if ci == t.RowidCol {
				if v.Kind != KInt {
					return nil, fmt.Errorf("sqldb: rowid must be an integer")
				}
				newRowid = v.I
			}
		}
		db.deleteIndexEntries(t, old.rowid, old.vals)
		if newRowid != old.rowid {
			tree.DeleteRow(old.rowid)
		}
		if err := tree.InsertRow(newRowid, db.record(newVals)); err != nil {
			return nil, err
		}
		for _, idx := range db.cat.TableIndexes(t.Name) {
			NewIndexTree(db.pager, idx.Root).InsertKey(db.indexKey(t, idx, newVals), newRowid)
		}
		res.RowsAffected++
	}
	return res, nil
}

func (db *DB) execDelete(s *DeleteStmt) (*Result, error) {
	t := db.cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("sqldb: no such table %s", s.Table)
	}
	tree := NewTableTree(db.pager, t.Root)
	res := &Result{}
	row := tblCtx{tbl: t}
	for hits := db.scanFiltered(t, s.Table, s.Where); len(hits) > 0; {
		hits = db.nextHit(&row, hits)
		db.deleteIndexEntries(t, row.rowid, row.vals)
		tree.DeleteRow(row.rowid)
		res.RowsAffected++
	}
	return res, nil
}

// --- CREATE INDEX ---------------------------------------------------------------

func (db *DB) execCreateIndex(s *CreateIndexStmt) (*Result, error) {
	idx, err := db.cat.CreateIndex(s.Name, s.Table, s.Cols, s.Unique)
	if err != nil {
		return nil, err
	}
	// Populate from existing rows.
	t := db.cat.Table(s.Table)
	tree := NewTableTree(db.pager, t.Root)
	itree := NewIndexTree(db.pager, idx.Root)
	var ierr error
	row := tblCtx{tbl: t}
	tree.ScanTable(func(rowid int64, record []byte) bool {
		db.bindRow(&row, rowid, record)
		ierr = itree.InsertKey(db.indexKey(t, idx, row.vals), rowid)
		return ierr == nil
	})
	return &Result{}, ierr
}

// --- PRAGMA ---------------------------------------------------------------------

func (db *DB) execPragma(s *PragmaStmt) (*Result, error) {
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
		res := &Result{Cols: []string{"integrity_check"}}
		if len(problems) == 0 {
			res.Rows = [][]Value{{Text("ok")}}
		} else {
			for _, p := range problems {
				res.Rows = append(res.Rows, []Value{Text(p)})
			}
		}
		return res, nil
	case "page_count":
		return &Result{Cols: []string{"page_count"},
			Rows: [][]Value{{Int(int64(db.pager.NPages()))}}}, nil
	case "cache_stats":
		st := db.pager.Stats
		return &Result{Cols: []string{"hits", "misses", "writes"},
			Rows: [][]Value{{Int(int64(st.Hits)), Int(int64(st.Misses)), Int(int64(st.Writes))}}}, nil
	}
	return nil, fmt.Errorf("sqldb: unsupported pragma %s", s.Name)
}

// --- SELECT ---------------------------------------------------------------------

// execSelect runs a SELECT; parent provides correlation context.
func (db *DB) execSelect(s *SelectStmt, parent *rowCtx) *Result {
	res := &Result{}
	// Bind tables.
	binds := make([]*tblCtx, len(s.From))
	for i, fi := range s.From {
		t := db.cat.Table(fi.Table)
		if t == nil {
			fail("no such table %s", fi.Table)
		}
		binds[i] = &tblCtx{alias: fi.Alias, tbl: t}
	}
	// Column headers.
	for _, c := range s.Cols {
		switch {
		case c.Star:
			for _, b := range binds {
				for _, col := range b.tbl.Columns {
					res.Cols = append(res.Cols, col.Name)
				}
			}
		case c.Alias != "":
			res.Cols = append(res.Cols, c.Alias)
		default:
			if ec, ok := c.Expr.(*ECol); ok {
				res.Cols = append(res.Cols, ec.Name)
			} else {
				res.Cols = append(res.Cols, fmt.Sprintf("col%d", len(res.Cols)+1))
			}
		}
	}

	conjuncts := splitConjuncts(s.Where)

	// ORDER BY terms that do not name an output column are appended as
	// hidden result columns, computed per row and stripped after sorting.
	visibleWidth := len(res.Cols)
	allCols := make([]SelectCol, len(s.Cols), len(s.Cols)+len(s.OrderBy))
	copy(allCols, s.Cols)
	type okey struct {
		idx  int
		desc bool
	}
	havingIdx := -1
	if s.Having != nil {
		if len(s.GroupBy) == 0 {
			fail("HAVING requires GROUP BY")
		}
		// HAVING rides along as a hidden column so the positional
		// aggregate substitution applies to it like any projection.
		havingIdx = len(res.Cols) + (len(allCols) - len(s.Cols))
		allCols = append(allCols, SelectCol{Expr: s.Having})
	}
	okeys := make([]okey, len(s.OrderBy))
	for i, oi := range s.OrderBy {
		idx := -1
		switch x := oi.Expr.(type) {
		case *ELit:
			if x.V.Kind == KInt && x.V.I >= 1 && int(x.V.I) <= visibleWidth {
				idx = int(x.V.I) - 1
			}
		case *ECol:
			for ci := 0; ci < visibleWidth; ci++ {
				if strings.EqualFold(res.Cols[ci], x.Name) {
					idx = ci
					break
				}
			}
		}
		if idx < 0 {
			idx = visibleWidth + (len(allCols) - len(s.Cols))
			allCols = append(allCols, SelectCol{Expr: oi.Expr})
		}
		okeys[i] = okey{idx: idx, desc: oi.Desc}
	}

	width := visibleWidth + len(allCols) - len(s.Cols) // of a result row, hidden columns included
	aggregate := len(s.GroupBy) > 0
	for _, c := range allCols {
		if !c.Star && hasAgg(c.Expr) {
			aggregate = true
		}
	}

	type group struct {
		first  *rowCtx
		states []*aggState
	}
	var groups map[string]*group
	var groupOrder []string
	if aggregate {
		groups = make(map[string]*group)
	}

	// aggTargets lists the aggregate calls in the select list, in order.
	var aggTargets []*EFunc
	var collect func(e Expr)
	collect = func(e Expr) {
		switch x := e.(type) {
		case *EFunc:
			if isAggFn(x.Name) {
				aggTargets = append(aggTargets, x)
				return
			}
			for _, a := range x.Args {
				collect(a)
			}
		case *EBin:
			collect(x.L)
			collect(x.R)
		case *EUn:
			collect(x.E)
		case *EBetween:
			collect(x.E)
			collect(x.Lo)
			collect(x.Hi)
		}
	}
	if aggregate {
		for _, c := range allCols {
			if !c.Star {
				collect(c.Expr)
			}
		}
	}

	var key []byte // the group key of the row, NUL-separated texts of its values
	emit := func(rc *rowCtx) bool {
		db.e.Work(workRowFilter)
		if aggregate {
			key = key[:0]
			for i, ge := range s.GroupBy {
				if i > 0 {
					key = append(key, 0)
				}
				if v := db.eval(rc, ge); v.Kind == KInt {
					key = strconv.AppendInt(key, v.I, 10)
				} else {
					key = append(key, v.String()...)
				}
			}
			g, ok := groups[string(key)]
			if !ok {
				// A new group keeps its key and a copy of its first row, which
				// the columns that are not aggregates read.
				g = &group{first: &rowCtx{parent: rc.parent}}
				for _, tc := range rc.tables {
					g.first.tables = append(g.first.tables,
						&tblCtx{alias: tc.alias, tbl: tc.tbl, rowid: tc.rowid, vals: keptRow(tc.vals)})
				}
				for _, at := range aggTargets {
					g.states = append(g.states, &aggState{fn: at.Name, isInt: true})
				}
				k := string(key)
				groups[k] = g
				groupOrder = append(groupOrder, k)
			}
			for i, at := range aggTargets {
				if at.Star {
					g.states[i].add(Int(1))
				} else if len(at.Args) > 0 {
					g.states[i].add(db.eval(rc, at.Args[0]))
				}
			}
			return true
		}
		row := db.projectRow(rc, allCols, width, nil, nil)
		res.Rows = append(res.Rows, row)
		// Fast-path LIMIT without ORDER BY.
		if s.Limit >= 0 && len(s.OrderBy) == 0 && int64(len(res.Rows)) >= s.Limit {
			return false
		}
		return true
	}

	db.joinLoop(binds, 0, &rowCtx{tables: nil, parent: parent}, conjuncts, emit)

	if aggregate {
		if len(s.GroupBy) == 0 && len(groupOrder) == 0 {
			// Aggregates over an empty set still produce one row.
			g := &group{first: &rowCtx{parent: parent}}
			for _, at := range aggTargets {
				g.states = append(g.states, &aggState{fn: at.Name, isInt: true})
			}
			groups[""] = g
			groupOrder = append(groupOrder, "")
		}
		for _, key := range groupOrder {
			g := groups[key]
			row := db.projectRow(g.first, allCols, width, aggTargets, g.states)
			res.Rows = append(res.Rows, row)
		}
	}

	if havingIdx >= 0 {
		pass := res.Rows[:0]
		for _, row := range res.Rows {
			v := row[havingIdx]
			if !v.IsNull() && v.Truthy() {
				pass = append(pass, row)
			}
		}
		res.Rows = pass
	}
	if s.Distinct {
		seen := make(map[string]bool, len(res.Rows))
		pass := res.Rows[:0]
		for _, row := range res.Rows {
			var sb strings.Builder
			for _, v := range row[:visibleWidth] {
				sb.WriteString(v.String())
				sb.WriteByte(0)
				sb.WriteByte(byte(v.Kind))
			}
			k := sb.String()
			if !seen[k] {
				seen[k] = true
				pass = append(pass, row)
			}
		}
		res.Rows = pass
	}
	if len(s.OrderBy) > 0 {
		slices.SortStableFunc(res.Rows, func(a, b []Value) int {
			db.e.Work(workPerCompare)
			for _, k := range okeys {
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
	if len(allCols) > len(s.Cols) {
		for i := range res.Rows {
			res.Rows[i] = res.Rows[i][:visibleWidth]
		}
	}
	return res
}

// projectRow evaluates the select list, width values wide, for one
// row/group. When aggStates is non-nil, aggregate calls are substituted
// positionally.
func (db *DB) projectRow(rc *rowCtx, cols []SelectCol, width int, aggTargets []*EFunc, aggStates []*aggState) []Value {
	row := make([]Value, 0, width)
	agg := 0
	var evalWithAgg func(e Expr) Value
	evalWithAgg = func(e Expr) Value {
		if aggStates != nil {
			if f, ok := e.(*EFunc); ok && isAggFn(f.Name) {
				v := aggStates[agg].result()
				agg++
				return v
			}
			switch x := e.(type) {
			case *EBin:
				l := evalWithAgg(x.L)
				r := evalWithAgg(x.R)
				return db.evalBin(rc, &EBin{Op: x.Op, L: &ELit{V: l}, R: &ELit{V: r}})
			case *EUn:
				v := evalWithAgg(x.E)
				return db.eval(rc, &EUn{Op: x.Op, E: &ELit{V: v}})
			}
		}
		return db.eval(rc, e)
	}
	// The row goes into the Result, which outlives the bound rows: every
	// value is copied out of them.
	for _, c := range cols {
		if c.Star {
			for _, tc := range rc.tables {
				for _, v := range tc.vals[:len(tc.tbl.Columns)] {
					row = append(row, kept(v))
				}
			}
			continue
		}
		row = append(row, kept(evalWithAgg(c.Expr)))
	}
	return row
}
