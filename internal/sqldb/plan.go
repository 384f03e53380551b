package sqldb

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// appendConjuncts appends the terms of a WHERE tree's AND chain to dst.
func appendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if b, ok := e.(*EBin); ok && b.Op == "AND" {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
}

// bindOf returns the index of the bind a column reference names: the
// bind of its table or, unqualified, the first whose table has the column;
// -1 when none does.
func bindOf(c *ECol, binds []*tblCtx) int {
	for i, b := range binds {
		if c.Table != "" {
			if strings.EqualFold(b.tbl.Name, c.Table) {
				return i
			}
		} else if strings.EqualFold(c.Name, "rowid") || b.tbl.ColIndex(c.Name) >= 0 {
			return i
		}
	}
	return -1
}

// maxBindIdx returns the highest bind index an expression references, or
// -1 when it references none (literals, columns no bind has). A subquery
// is pinned to the last bind, so that it is only evaluated on fully bound
// rows.
func maxBindIdx(e Expr, binds []*tblCtx) int {
	m := -1
	walkExpr(e, func(e Expr) bool {
		switch x := e.(type) {
		case *ECol:
			m = max(m, bindOf(x, binds))
		case *ESub:
			m = len(binds) - 1
		}
		return true
	})
	return m
}

// colOn returns the column index the expression names on bind i, with
// -2 meaning "the rowid", or -1 when it is not a plain column of bind i.
func colOn(e Expr, binds []*tblCtx, i int) int {
	c, ok := e.(*ECol)
	if !ok {
		return -1
	}
	b := binds[i]
	if c.Table != "" && !strings.EqualFold(c.Table, b.tbl.Name) {
		return -1
	}
	if c.Table == "" {
		// An unqualified name binds to the first table that has it.
		if bindOf(c, binds) != i {
			return -1
		}
	}
	if strings.EqualFold(c.Name, "rowid") {
		return -2
	}
	ci := b.tbl.ColIndex(c.Name)
	if ci < 0 {
		return -1
	}
	if ci == b.tbl.RowidCol {
		return -2
	}
	return ci
}

// access describes how to enumerate rows of one bind: a look-up of eq, or
// a range from lo to hi, on idx — nil meaning the rowid — or, with none
// of the three, a full scan. The expressions are evaluated against the
// outer row context.
type access struct {
	idx            *Index
	eq, lo, hi     Expr
	loIncl, hiIncl bool
}

// rank orders access paths: a full scan below every range, a range below
// every look-up, and of two paths otherwise alike the rowid's above an
// index's.
func (a access) rank() int {
	if a.eq == nil && a.lo == nil && a.hi == nil {
		return 0
	}
	r := 1
	if a.eq != nil {
		r += 2
	}
	if a.idx == nil {
		r++
	}
	return r
}

var flipOp = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// planAccess chooses the access path for bind i given the conjuncts that
// become fully bound at this level: the best that a conjunct comparing a
// column of the bind with what the binds before it compute gives.
func (db *DB) planAccess(binds []*tblCtx, i int, conjuncts []Expr) access {
	b := binds[i]
	var best access
	// consider offers a, a path on column ci of b (-2: the rowid), when its
	// bounds are computable before b is bound and ci is the rowid or leads
	// an index.
	consider := func(ci int, a access) {
		for _, e := range [...]Expr{a.eq, a.lo, a.hi} {
			if e != nil && maxBindIdx(e, binds) >= i {
				return
			}
		}
		if ci >= 0 {
			for _, idx := range db.cat.TableIndexes(b.tbl.Name) {
				if strings.EqualFold(idx.Cols[0], b.tbl.Columns[ci].Name) {
					a.idx = idx
					break
				}
			}
			if a.idx == nil {
				return
			}
		}
		if a.rank() > best.rank() {
			best = a
		}
	}
	for _, c := range conjuncts {
		if maxBindIdx(c, binds) != i {
			continue
		}
		switch x := c.(type) {
		case *EBin:
			op, ci, rhs := x.Op, colOn(x.L, binds, i), x.R
			if ci == -1 {
				op, ci, rhs = flipOp[x.Op], colOn(x.R, binds, i), x.L
			}
			switch {
			case ci == -1: // neither side is a column of b
			case op == "=":
				consider(ci, access{eq: rhs})
			case op == ">" || op == ">=":
				consider(ci, access{lo: rhs, loIncl: op == ">="})
			case op == "<" || op == "<=":
				consider(ci, access{hi: rhs, hiIncl: op == "<="})
			}
		case *EBetween:
			if ci := colOn(x.E, binds, i); ci != -1 {
				consider(ci, access{lo: x.Lo, hi: x.Hi, loIncl: true, hiIncl: true})
			}
		}
	}
	return best
}

// bindRow binds a fetched row: the bind's value slice is decoded over,
// not replaced, and extended to the current column count (ALTER TABLE ADD
// COLUMN reads old rows as NULL) with the rowid alias filled in.
func (db *DB) bindRow(b *tblCtx, rowid int64, record []byte) {
	src := record
	if db.afterRow != nil { // PoisonRows: views alias a copy it can poison
		b.own = append(b.own[:0], record...)
		src = b.own
	}
	vals, err := decodeRecord(b.vals, src)
	if err != nil {
		fail("%v", err)
	}
	for len(vals) < len(b.tbl.Columns) {
		vals = append(vals, Null())
	}
	if b.tbl.RowidCol >= 0 {
		vals[b.tbl.RowidCol] = Int(rowid)
	}
	b.rowid, b.rec, b.vals = rowid, record, vals
}

// rowidBound turns the value a rowid is compared against into the rowid a
// range scan starts at or, for an upper bound, stops at: exactly for an
// integer, since float64 merges integers past 2^53. For anything else the
// bound only has to admit every match, because tryRow re-checks the
// conjunct: a real is truncated, text sorts above every number.
// ok is false when no rowid can match.
func rowidBound(v Value, upper, incl bool) (bound int64, ok bool) {
	switch v.Kind {
	case KInt:
		switch {
		case incl:
			return v.I, true
		case upper:
			return v.I - 1, v.I != math.MinInt64
		}
		return v.I + 1, v.I != math.MaxInt64
	case KReal:
		switch {
		case v.R >= 1<<63:
			return math.MaxInt64, true
		case v.R < -(1 << 63):
			return math.MinInt64, true
		}
		return int64(v.R), true
	case KText:
		return math.MaxInt64, upper
	}
	return 0, false // NULL
}

// joinLevel is one table of a join: its bind, the conjuncts checked once
// it is bound, its access path, and the row contexts of the binds before
// it (what the access path's expressions read) and up to it. lo and hi
// hold the keys an index path scans between, the level's own: the levels
// of a join scan at the same time.
type joinLevel struct {
	b          *tblCtx
	applicable []Expr
	a          access
	outer, rc  rowCtx
	lo, hi     []byte
}

// join calls emit with f.rc for every row of f's first n binds that
// passes conjuncts. Each level is planned once, before any row is read.
func (db *DB) join(f *frame, n int, conjuncts []Expr, emit func(*rowCtx) bool) {
	binds := f.binds[:n]
	f.rc = rowCtx{tables: binds}
	// The levels are not grown again until the next statement enters f:
	// the deeper levels and subqueries hold pointers into them.
	f.levels = slices.Grow(f.levels[:0], n)[:n]
	for i := range f.levels {
		l := &f.levels[i]
		l.b, l.applicable = binds[i], l.applicable[:0]
		l.outer = rowCtx{tables: binds[:i]}
		l.rc = rowCtx{tables: binds[:i+1]}
		for _, c := range conjuncts {
			if maxBindIdx(c, binds) == i {
				l.applicable = append(l.applicable, c)
			}
		}
		// At the last level, conjuncts that reference no binds (constant,
		// or naming a column no bind has) are checked too.
		if i == n-1 {
			for _, c := range conjuncts {
				if maxBindIdx(c, binds) == -1 {
					l.applicable = append(l.applicable, c)
				}
			}
		}
		l.a = db.planAccess(binds, i, conjuncts)
	}
	db.joinLoop(f, 0, emit)
}

// joinLoop enumerates rows of f's levels from i on under the already-bound
// prefix, filtering each level with its applicable conjuncts, and calls
// emit for every surviving fully-bound row. Returns false when emit asked
// to stop.
func (db *DB) joinLoop(f *frame, i int, emit func(*rowCtx) bool) bool {
	if i == len(f.levels) {
		return emit(&f.rc)
	}
	l := &f.levels[i]
	b := l.b
	tree := NewTableTree(db.pager, b.tbl.Root)
	tryRow := func(rowid int64, record []byte) bool {
		db.bindRow(b, rowid, record)
		db.e.Work(workRowFilter)
		pass := true
		for _, c := range l.applicable {
			v := db.eval(&l.rc, c)
			if v.IsNull() || !v.Truthy() {
				pass = false // filtered out; keep scanning
				break
			}
		}
		more := !pass || db.joinLoop(f, i+1, emit)
		if db.afterRow != nil {
			db.afterRow(b)
		}
		return more
	}

	outer, a := &l.outer, l.a // the access path reads the binds before b only
	switch {
	case a.idx != nil:
		itree := NewIndexTree(db.pager, a.idx.Root)
		// Range bounds only need to be a superset of the matching keys:
		// every applicable conjunct is re-checked per row, so exclusive
		// bounds simply scan inclusively. A look-up scans the keys that
		// start with its value's.
		var lo, hi []byte
		if from := cmp.Or(a.eq, a.lo); from != nil {
			v := db.eval(outer, from)
			if v.IsNull() {
				return true
			}
			l.lo = appendKey(scratch(l.lo), v)
			lo = l.lo
		}
		switch {
		case a.eq != nil:
			l.hi = append(append(scratch(l.hi), lo...), 0xFF)
			hi = l.hi
		case a.hi != nil:
			v := db.eval(outer, a.hi)
			if v.IsNull() {
				return true
			}
			l.hi = append(appendKey(scratch(l.hi), v), 0xFF)
			hi = l.hi
		}
		ok := true
		itree.ScanIndexRange(lo, hi, func(key []byte, rowid int64) bool {
			tree.Row(rowid, func(record []byte) { ok = tryRow(rowid, record) })
			return ok
		})
		return ok
	case a.eq != nil: // the rowid's
		v := db.eval(outer, a.eq)
		if v.IsNull() || v.Kind != KInt && v.Kind != KReal {
			return true
		}
		rowid := v.I
		if v.Kind == KReal {
			rowid = int64(v.R) // tryRow rejects the row unless v.R is exactly its rowid
		}
		ok := true
		tree.Row(rowid, func(record []byte) { ok = tryRow(rowid, record) })
		return ok
	case a.lo != nil || a.hi != nil: // the rowid's
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		var feasible bool
		if a.lo != nil {
			if lo, feasible = rowidBound(db.eval(outer, a.lo), false, a.loIncl); !feasible {
				return true
			}
		}
		if a.hi != nil {
			if hi, feasible = rowidBound(db.eval(outer, a.hi), true, a.hiIncl); !feasible {
				return true
			}
		}
		ok := true
		tree.ScanTableFrom(lo, func(rowid int64, record []byte) bool {
			if rowid > hi {
				return false
			}
			ok = tryRow(rowid, record)
			return ok
		})
		return ok
	}
	// Full scan.
	ok := true
	tree.ScanTable(func(rowid int64, record []byte) bool {
		ok = tryRow(rowid, record)
		return ok
	})
	return ok
}

// scanFiltered stages the rows of t that match where — the rows an UPDATE
// or DELETE is about to change — for nextHit, each as a run of db.hits
// holding its rowid, record length and a copy of its record: the table is
// written only once the scan that found them is over. The scan binds f's
// first bind, and f.rc is its row context.
func (db *DB) scanFiltered(f *frame, t *Table, where Expr) {
	db.hits.rewind()
	b := f.bind(0, t)
	f.conj = appendConjuncts(f.conj[:0], where)
	db.join(f, 1, f.conj, func(*rowCtx) bool {
		hit := db.hits.alloc(12 + len(b.rec))
		le.PutUint64(hit, uint64(b.rowid))
		le.PutUint32(hit[8:], uint32(len(b.rec)))
		copy(hit[12:], b.rec)
		return true
	})
}

// hitCursor is where nextHit finds the next staged hit: a chunk of db.hits
// and an offset in it.
type hitCursor struct{ chunk, off int }

// nextHit binds the staged hit at at to b and moves at past it, or reports
// false when every hit has been bound. The row's texts are views of
// db.hits.
func (db *DB) nextHit(b *tblCtx, at *hitCursor) bool {
	chunks := db.hits.inUse()
	for at.chunk < len(chunks) && at.off == len(chunks[at.chunk]) {
		at.chunk, at.off = at.chunk+1, 0
	}
	if at.chunk == len(chunks) {
		return false
	}
	hit := chunks[at.chunk][at.off:]
	end := 12 + int(le.Uint32(hit[8:]))
	db.bindRow(b, int64(le.Uint64(hit)), hit[12:end])
	at.off += end
	return true
}
