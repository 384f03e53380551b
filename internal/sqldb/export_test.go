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
// pinned and unwritten. The external tests run every statement under it.
func (db *DB) PoisonRows() {
	db.afterRow = func(b *tblCtx) {
		if !bytes.Equal(b.rec, b.own) {
			panic(fmt.Sprintf("sqldb: the record of row %d changed under its callback", b.rowid))
		}
		for i := range b.vals {
			b.vals[i] = Text("POISON")
		}
		for i := range b.own {
			b.own[i] = 0xDD
		}
	}
}

// OnParse hands fn every statement Exec parses, before it runs.
func (db *DB) OnParse(fn func(sql string, stmt any)) { db.onParse = fn }

// GoodStatements are statements the parser must accept.
var GoodStatements = goodStatements
