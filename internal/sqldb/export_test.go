package sqldb

// GuardScans makes the pager panic when a page is handed out for writing
// while a holder up the stack has it pinned — a B+tree scan iterating it, a
// row look-up showing it — and fill every evicted frame with 0xDD before it
// is recycled. The cell directory a scan walks is the one a write edits, so
// such a statement would read shifted cells; a holder that kept a frame
// without a pin reads poison. The external tests run every statement under
// the guard.
func (p *Pager) GuardScans() { p.guardScans = true }

// PoisonRows overwrites a bind's reused row with a poison value as soon as
// the callback of the row bound to it has returned, and takes its record
// away: whatever kept the slice, or a lazy value of it, instead of the
// values reads POISON or panics. The external tests run every statement
// under it.
func (db *DB) PoisonRows() {
	db.afterRow = func(b *tblCtx) {
		for i := range b.vals {
			b.vals[i] = Text("POISON")
		}
		b.rec = nil
	}
}
