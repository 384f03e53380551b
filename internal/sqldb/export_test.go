package sqldb

import (
	"bytes"
	"fmt"
)

// GuardScans makes the pager panic when a page is handed out for writing
// while a holder up the stack has it pinned — a B+tree scan iterating it, a
// row look-up showing it — and fill every evicted frame with 0xDD before it
// is recycled. The cell directory a scan walks is the one a write edits, so
// such a statement would read shifted cells; a holder that kept a frame
// without a pin reads poison. The external tests run every statement under
// the guard.
func (p *Pager) GuardScans() { p.guardScans = true }

// PoisonRows makes every bind decode a copy of its record, and poisons
// both the bind's reused row and that copy as soon as the callback of the
// row bound to it has returned: whatever kept the slice reads POISON, and
// whatever kept a text or blob view of the record instead of a copy
// (kept) reads 0xDD bytes. Since the views no longer alias the page, it
// first checks what they would have seen: the record as the scan or
// look-up showed it must not have changed under the callback — the frame
// pinned and unwritten.
//
// It poisons a Result the same way once the next statement at its level
// starts — the next Exec for the one Exec returned, the next subquery at
// its depth for a subquery's — and gives the level fresh arenas, so the
// poison stays: a kept Result, row or value reads POISON, a kept text or
// blob 0xDD bytes.
//
// And Exec runs each statement from a copy of its text that it poisons
// once it returns: a table, column or index name, or a Result column, that
// views the text instead of copying it reads 0xDD bytes. The external
// tests run every statement under it.
func (db *DB) PoisonRows() {
	db.afterRow = func(b *tblCtx) {
		if !bytes.Equal(b.rec, b.own) {
			panic(fmt.Sprintf("sqldb: the record of row %d changed under its callback", b.rowid))
		}
		for i := range b.vals {
			b.vals[i] = Text("POISON")
		}
		poison(b.own)
	}
	db.onRewind = func(f *frame) {
		for _, c := range f.text.inUse() {
			poison(c)
		}
		for _, c := range f.cells.inUse() {
			for i := range c {
				c[i] = Text("POISON")
			}
		}
		for _, row := range f.res.Rows { // a PRAGMA's rows are not in the arena
			for i := range row {
				row[i] = Text("POISON")
			}
		}
		f.res = new(Result)
		f.cells = arena[Value]{per: f.cells.per, keep: f.cells.keep}
		f.text = arena[byte]{per: f.text.per, keep: f.text.keep}
	}
	db.ownText = func(sql string) (string, func()) {
		own := []byte(sql)
		return view(own), func() { poison(own) }
	}
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xDD
	}
}

// checkIndexes is the oracle of the indexes against their tables: every
// entry of an index names a row of its table, no row twice, under the key
// indexKey builds from that row, and the index has an entry per row.
func (db *DB) checkIndexes() error {
	for _, name := range db.cat.Tables() {
		t := db.cat.Table(name)
		tree := NewTableTree(db.pager, t.Root)
		rows := 0
		tree.ScanTable(func(int64, []byte) bool { rows++; return true })
		row := &tblCtx{tbl: t}
		for _, idx := range db.cat.TableIndexes(name) {
			seen := map[int64]bool{}
			var err error
			NewIndexTree(db.pager, idx.Root).ScanIndexRange(nil, nil, func(key []byte, rowid int64) bool {
				switch {
				case seen[rowid]:
					err = fmt.Errorf("index %s lists row %d twice", idx.Name, rowid)
				case !tree.Row(rowid, func(rec []byte) { db.bindRow(row, rowid, rec) }):
					err = fmt.Errorf("index %s: entry %x names row %d, which %s does not hold", idx.Name, key, rowid, name)
				case !bytes.Equal(key, db.indexKey(t, idx, row.vals)):
					err = fmt.Errorf("index %s: entry %x names row %d, whose key is %x", idx.Name, key, rowid, db.indexKey(t, idx, row.vals))
				}
				seen[rowid] = true
				return err == nil
			})
			if err != nil {
				return err
			}
			if len(seen) != rows {
				return fmt.Errorf("index %s has %d entries, %s %d rows", idx.Name, len(seen), name, rows)
			}
		}
	}
	return nil
}

// CheckIndexes is checkIndexes.
var CheckIndexes = (*DB).checkIndexes

// OnParse hands fn every statement Exec parses, before it runs. The text
// dies with the Exec: fn clones what it keeps.
func (db *DB) OnParse(fn func(sql string, stmt any)) { db.onParse = fn }

// GoodStatements are statements the parser must accept.
var GoodStatements = goodStatements

// MustExec is Exec that fails hard; for tests.
func (db *DB) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return r
}

// EncodeKey produces a byte string whose lexicographic order matches
// Compare-order over the value tuple. Index B+tree keys are built with
// appendKey.
func EncodeKey(vals []Value) []byte {
	out := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		out = appendKey(out, v)
	}
	return out
}
