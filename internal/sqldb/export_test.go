package sqldb

// GuardScans makes the pager panic when a page is handed out for writing
// while a B+tree scan up the stack is iterating it. The cell directory a
// scan walks is the one a write edits, so such a statement would read
// shifted cells; the external tests run every statement under the guard.
func (p *Pager) GuardScans() { p.guardScans = true }
