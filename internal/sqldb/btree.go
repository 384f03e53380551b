package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// B+tree page types.
const (
	pgTableLeaf     = 1
	pgTableInterior = 2
	pgIndexLeaf     = 3
	pgIndexInterior = 4
)

// Page header layout:
//
//	[0]    page type
//	[1:3)  cell count
//	[3:7)  right pointer: next-leaf link (leaf) or rightmost child (interior)
//	[7:16) reserved
//	[16:)  cells, stored contiguously, each u16 length-prefixed
//
// Every byte past the last cell is zero. A cell body is, by page type:
//
//	table leaf      rowid u64 | record
//	table interior  max rowid u64 | child u32    (child holds rowids <= max)
//	index leaf      key length u32 | key | rowid u64
//	index interior  key length u32 | key | rowid u64 | child u32
//
// Interior index cells carry the full (key, rowid) separator so that
// duplicate keys still have a strict total order across children.
const (
	pgHdrSize  = 16
	maxPayload = PageSize - pgHdrSize - 64 // one cell must always fit
)

var le = binary.LittleEndian

// initBtreePage formats a zeroed page.
func initBtreePage(data []byte, typ byte) {
	clear(data[:pgHdrSize])
	data[0] = typ
}

// node is a page frame seen as a B+tree page: the bytes in their on-disk
// format plus a directory of where each cell starts, so that a visit
// costs a binary search and a mutation one copy, with no decoding. The
// pager keeps one per cached frame (cpage) and rebuilds the directory
// lazily after handing the frame's bytes out raw; see Pager.node.
type node struct {
	data []byte
	// dir[i] is the offset of cell i's length prefix and the last entry
	// the offset one past the last cell. Empty means stale: not built yet,
	// or the bytes have changed behind it.
	dir []uint16
}

func (n *node) typ() byte     { return n.data[0] }
func (n *node) right() uint32 { return le.Uint32(n.data[3:]) }
func (n *node) count() int    { return len(n.dir) - 1 }
func (n *node) end() int      { return int(n.dir[len(n.dir)-1]) }

// cell returns the body of cell i, a view into the page.
func (n *node) cell(i int) []byte { return n.data[n.dir[i]+2 : n.dir[i+1]] }

// index builds the directory from the page bytes if it is stale.
func (n *node) index() {
	if len(n.dir) > 0 {
		return
	}
	cnt, off := int(le.Uint16(n.data[1:])), pgHdrSize
	n.dir = slices.Grow(n.dir, cnt+2) // the cells, the end, and the insert a visit is likely for
	for ; cnt > 0; cnt-- {
		n.dir = append(n.dir, uint16(off))
		off += 2 + int(le.Uint16(n.data[off:]))
	}
	n.dir = append(n.dir, uint16(off))
}

// reset formats n as an empty page.
func (n *node) reset(typ byte, right uint32) {
	clear(n.data)
	n.data[0] = typ
	le.PutUint32(n.data[3:], right)
	n.dir = append(n.dir[:0], pgHdrSize)
}

// shift moves cell pos and everything after it by delta bytes with one
// copy. A move down zeroes what it vacates: page images stay identical
// to a page written out from scratch.
func (n *node) shift(pos, delta int) {
	from, end := int(n.dir[pos]), n.end()
	copy(n.data[from+delta:], n.data[from:end])
	if delta < 0 {
		clear(n.data[end+delta : end])
	}
	for i := pos; i < len(n.dir); i++ {
		n.dir[i] = uint16(int(n.dir[i]) + delta)
	}
}

// splice makes cell pos one of size body bytes — a new cell, or with
// replace set the one already there resized — and returns the body for
// the caller to fill. It reports false, having changed nothing, when the
// page cannot hold it.
func (n *node) splice(pos int, replace bool, size int) ([]byte, bool) {
	off, next, delta := int(n.dir[pos]), pos, 2+size
	if replace {
		next++
		delta -= int(n.dir[next]) - off
	}
	if n.end()+delta > len(n.data) {
		return nil, false
	}
	n.shift(next, delta)
	if !replace {
		n.dir = slices.Insert(n.dir, pos, uint16(off))
		le.PutUint16(n.data[1:], uint16(n.count()))
	}
	le.PutUint16(n.data[off:], uint16(size))
	return n.data[off+2 : off+2+size], true
}

// remove deletes cell pos.
func (n *node) remove(pos int) {
	n.shift(pos+1, int(n.dir[pos])-int(n.dir[pos+1]))
	n.dir = slices.Delete(n.dir, pos, pos+1)
	le.PutUint16(n.data[1:], uint16(n.count()))
}

// take fills the freshly reset n with cells [from, to) of src.
func (n *node) take(src *node, from, to int) {
	lo := src.dir[from]
	copy(n.data[pgHdrSize:], src.data[lo:src.dir[to]])
	le.PutUint16(n.data[1:], uint16(to-from))
	n.dir = n.dir[:0]
	for _, off := range src.dir[from : to+1] {
		n.dir = append(n.dir, off-lo+pgHdrSize)
	}
}

// child returns the child of an interior page that covers position pos:
// a cell's pointer (its last four bytes), or past the last cell the
// page's right pointer.
func (n *node) child(pos int) uint32 {
	if pos == n.count() {
		return n.right()
	}
	body := n.cell(pos)
	return le.Uint32(body[len(body)-4:])
}

// setChild overwrites the pointer child reads.
func (n *node) setChild(pos int, pgno uint32) {
	if pos == n.count() {
		le.PutUint32(n.data[3:], pgno)
		return
	}
	body := n.cell(pos)
	le.PutUint32(body[len(body)-4:], pgno)
}

// Btree is a B+tree rooted at a page. The root page number is stable
// (splits push content down), so the catalog can hold root references.
type Btree struct {
	p     *Pager
	root  uint32
	index bool
	// leaf and interior are the page types of this kind of tree.
	leaf, interior byte
}

// NewTableTree opens a table B+tree at root.
func NewTableTree(p *Pager, root uint32) *Btree {
	return &Btree{p: p, root: root, leaf: pgTableLeaf, interior: pgTableInterior}
}

// NewIndexTree opens an index B+tree at root.
func NewIndexTree(p *Pager, root uint32) *Btree {
	return &Btree{p: p, root: root, index: true, leaf: pgIndexLeaf, interior: pgIndexInterior}
}

// CreateTableTree allocates and formats a new table tree; returns its root.
func CreateTableTree(p *Pager) uint32 {
	pg := p.Allocate()
	initBtreePage(p.Write(pg), pgTableLeaf)
	return pg
}

// CreateIndexTree allocates and formats a new index tree; returns its root.
func CreateIndexTree(p *Pager) uint32 {
	pg := p.Allocate()
	initBtreePage(p.Write(pg), pgIndexLeaf)
	return pg
}

// cellKey returns what a cell sorts by: its key (nil in a table tree)
// and rowid.
func (t *Btree) cellKey(body []byte) ([]byte, int64) {
	var key []byte
	if t.index {
		kl := 4 + le.Uint32(body)
		key, body = body[4:kl], body[kl:]
	}
	return key, int64(le.Uint64(body))
}

// cell is a cell to be written: kp is its variable part — the record of
// a table leaf, the key of an index cell, nothing in a table interior
// cell — and child its pointer on an interior page.
type cell struct {
	kp    []byte
	rowid int64
	child uint32
}

// cellSize returns the body length of c on a page of this tree.
func (t *Btree) cellSize(leaf bool, c cell) int {
	size := 8 + len(c.kp)
	if t.index {
		size += 4
	}
	if !leaf {
		size += 4
	}
	return size
}

// putCell fills in a body of cellSize bytes.
func (t *Btree) putCell(body []byte, leaf bool, c cell) {
	if t.index {
		le.PutUint32(body, uint32(len(c.kp)))
		body = body[4+copy(body[4:], c.kp):]
	} else {
		copy(body[8:], c.kp)
	}
	le.PutUint64(body, uint64(c.rowid))
	if !leaf {
		le.PutUint32(body[len(body)-4:], c.child)
	}
}

// search returns the position of the first cell that does not sort
// before (key, rowid); table trees ignore key.
func (t *Btree) search(n *cpage, key []byte, rowid int64) int {
	t.p.e.Work(workNodeSearch)
	lo, hi, probes := 0, n.count(), uint64(0)
	for lo < hi {
		probes++
		mid := (lo + hi) / 2
		k, r := t.cellKey(n.cell(mid))
		cmp := 0
		if t.index {
			cmp = bytes.Compare(k, key)
		}
		if cmp < 0 || (cmp == 0 && r < rowid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.p.e.WorkN(workPerCompare, probes)
	return lo
}

// split describes a page split propagating upward: newPg holds the upper
// half; sep is the max key of the lower half.
type split struct {
	sep   cell
	newPg uint32
}

// insert walks down from page pgno, at level (the root's 0) of the tree,
// and stores the leaf cell c, over the row already at c.rowid in a table
// tree; returns a split if the page overflowed.
func (t *Btree) insert(pgno uint32, level int, c cell) *split {
	n := t.p.node(pgno)
	pos := t.search(n, c.kp, c.rowid)
	if n.typ() == t.leaf {
		replace := false
		if !t.index && pos < n.count() {
			_, have := t.cellKey(n.cell(pos))
			replace = have == c.rowid
		}
		return t.put(t.p.edit(pgno), level, pos, replace, c)
	}
	child := n.child(pos)
	sp := t.insert(child, level+1, c)
	if sp == nil {
		return nil
	}
	// The child split: it keeps the lower half (keys <= sep), the new
	// page holds the upper half. The pointer that led here moves to the
	// new page and a separator cell pointing at the child goes in before
	// it. (The page is fetched again: the descent may have evicted it.)
	n = t.p.edit(pgno)
	n.setChild(pos, sp.newPg)
	sp.sep.child = child
	return t.put(n, level, pos, false, sp.sep)
}

// put stores c at pos of n, a page at level of the tree that the caller
// got from Pager.edit — over the cell there when replace is set — and
// splits the page when the cell no longer fits.
func (t *Btree) put(n *cpage, level, pos int, replace bool, c cell) *split {
	leaf := n.typ() == t.leaf
	body, ok := n.splice(pos, replace, t.cellSize(leaf, c))
	if !ok {
		return t.splitPut(n, level, pos, replace, c)
	}
	t.putCell(body, leaf, c)
	return nil
}

// splitPut is put on a page without room: it makes the same edit on a
// copy that has room (the pager's scratch: a stack array would escape),
// cuts the run of cells in two at the middle cell and writes the halves
// out to n's page and a new one. The split it returns is the pager's for
// level, good until the next split at that level: the level above has
// put its separator in a page by then.
func (t *Btree) splitPut(n *cpage, level, pos int, replace bool, c cell) *split {
	big := &t.p.big
	if big.data == nil {
		big.data = make([]byte, 2*PageSize)
	}
	big.dir = append(big.dir[:0], n.dir...)
	copy(big.data, n.data[:n.end()])
	// n is not read past the first Allocate, which may evict it and hand
	// its frame to another page: what the split needs of it is read here.
	pgno, typ, leaf, right := n.pgno, n.typ(), n.typ() == t.leaf, n.right()
	body, _ := big.splice(pos, replace, t.cellSize(leaf, c))
	t.putCell(body, leaf, c)
	cnt := big.count()
	mid := max(cnt/2, 1)
	// A leaf keeps cells [0, mid) and links to the new page, which takes
	// the rest; the separator is the last key kept. An interior page
	// pushes cell mid up instead: the child it points at becomes the
	// rightmost child of the half that stays.
	sepAt, upFrom := mid-1, mid
	if !leaf {
		sepAt, upFrom = mid, mid+1
	}
	if int(big.dir[mid]) > PageSize || big.end()-int(big.dir[upFrom]) > PageSize-pgHdrSize {
		fail("page %d cannot be split in the middle around a %d-byte cell", pgno, len(body))
	}
	for len(t.p.splits) <= level {
		t.p.splits = append(t.p.splits, new(split))
	}
	sp := t.p.splits[level]
	sep, rowid := t.cellKey(big.cell(sepAt))
	sp.sep = cell{kp: append(sp.sep.kp[:0], sep...), rowid: rowid}
	sp.newPg = t.p.Allocate()
	lowRight := sp.newPg
	if !leaf {
		lowRight = big.child(sepAt)
	}
	up := t.p.edit(sp.newPg)
	up.reset(typ, right)
	up.take(big, upFrom, cnt)
	low := t.p.edit(pgno)
	low.reset(typ, lowRight)
	low.take(big, 0, mid)
	if pgno != t.root {
		return sp
	}
	// The split reached the root: its content moves to a fresh page — a
	// page copy — so that the root page number stays stable, and the root
	// becomes an interior page over the two halves.
	sp.sep.child = t.p.Allocate()
	src := t.p.node(t.root)
	dst := t.p.edit(sp.sep.child)
	copy(dst.data, src.data)
	dst.dir = append(dst.dir[:0], src.dir...)
	root := t.p.edit(t.root)
	root.reset(t.interior, sp.newPg)
	return t.put(root, level, 0, false, sp.sep)
}

// --- Table-tree API ----------------------------------------------------------

// InsertRow inserts or replaces the record at rowid.
func (t *Btree) InsertRow(rowid int64, record []byte) error {
	if t.index {
		return fmt.Errorf("sqldb: InsertRow on index tree")
	}
	if len(record) > maxPayload {
		return fmt.Errorf("sqldb: record of %d bytes exceeds page capacity", len(record))
	}
	t.p.e.Work(workRecEncode)
	t.insert(t.root, 0, cell{kp: record, rowid: rowid})
	return nil
}

// findLeaf descends to the leaf that would contain (key, rowid); returns
// the leaf page number.
func (t *Btree) findLeaf(key []byte, rowid int64) uint32 {
	pg := t.root
	for depth := 0; ; depth++ {
		if depth > 64 {
			panic(fmt.Sprintf("sqldb: findLeaf exceeded depth 64 at page %d (corrupt tree)", pg))
		}
		n := t.p.node(pg)
		if n.typ() == t.leaf {
			return pg
		}
		pg = n.child(t.search(n, key, rowid))
	}
}

// find returns the leaf holding exactly (key, rowid) and the cell's
// position, or a nil leaf.
func (t *Btree) find(key []byte, rowid int64) (*cpage, int) {
	n := t.p.node(t.findLeaf(key, rowid))
	pos := t.search(n, key, rowid)
	if pos < n.count() {
		if k, r := t.cellKey(n.cell(pos)); r == rowid && bytes.Equal(k, key) {
			return n, pos
		}
	}
	return nil, 0
}

// Row calls fn on the record stored at rowid, a view of the leaf that
// holds it, and reports whether there is one. The leaf is pinned until fn
// returns: fn may call into the pager — a join's inner look-ups do — and
// the view stays the bytes it was shown. fn must not write the leaf (under
// Pager.guardScans that panics) nor keep the view.
func (t *Btree) Row(rowid int64, fn func(record []byte)) bool {
	n, pos := t.find(nil, rowid)
	if n == nil {
		return false
	}
	t.p.e.Work(workRecDecode)
	n.pins++
	defer func() { n.pins-- }()
	fn(n.cell(pos)[8:])
	return true
}

// DeleteRow removes rowid; reports whether it existed.
func (t *Btree) DeleteRow(rowid int64) bool { return t.DeleteKey(nil, rowid) }

// MaxRowid returns the largest rowid in the table (0 when empty).
func (t *Btree) MaxRowid() int64 {
	n := t.p.node(t.root)
	for n.typ() != t.leaf {
		n = t.p.node(n.right())
	}
	// The rightmost leaf is reached by rightmost pointers only, so its
	// right link should be 0; guard anyway.
	for n.right() != 0 {
		n = t.p.node(n.right())
	}
	if n.count() == 0 {
		return 0
	}
	_, rowid := t.cellKey(n.cell(n.count() - 1))
	return rowid
}

// eachCell calls fn on every cell of leaf pgno, in order, until fn
// returns false; it returns the next leaf, or 0 when stopped. The leaf is
// pinned meanwhile. fn must not write to the page it is being shown — the
// directory is the cached one — which Pager.guardScans turns into a panic
// under test.
func (t *Btree) eachCell(pgno uint32, fn func(body []byte) bool) uint32 {
	n := t.p.node(pgno)
	next := n.right()
	n.pins++
	defer func() { n.pins-- }()
	for i := 0; i < n.count(); i++ {
		if !fn(n.cell(i)) {
			return 0
		}
	}
	return next
}

// ScanTable walks all rows in rowid order; fn returns false to stop.
func (t *Btree) ScanTable(fn func(rowid int64, record []byte) bool) {
	t.scanRows(t.leftmostLeaf(), -1<<63, fn)
}

// ScanTableFrom walks rows with rowid >= start in order.
func (t *Btree) ScanTableFrom(start int64, fn func(rowid int64, record []byte) bool) {
	t.scanRows(t.findLeaf(nil, start), start, fn)
}

func (t *Btree) scanRows(pg uint32, start int64, fn func(rowid int64, record []byte) bool) {
	for pg != 0 {
		pg = t.eachCell(pg, func(body []byte) bool {
			rowid := int64(le.Uint64(body))
			if rowid < start {
				return true
			}
			t.p.e.Work(workRecDecode)
			return fn(rowid, body[8:])
		})
	}
}

func (t *Btree) leftmostLeaf() uint32 {
	pg := t.root
	for {
		n := t.p.node(pg)
		if n.typ() == t.leaf {
			return pg
		}
		pg = n.child(0)
	}
}

// --- Index-tree API ----------------------------------------------------------

// InsertKey adds (key, rowid) to the index.
func (t *Btree) InsertKey(key []byte, rowid int64) error {
	if !t.index {
		return fmt.Errorf("sqldb: InsertKey on table tree")
	}
	if len(key) > maxPayload {
		return fmt.Errorf("sqldb: index key too large")
	}
	t.p.e.Work(workRecEncode)
	t.insert(t.root, 0, cell{kp: key, rowid: rowid})
	return nil
}

// DeleteKey removes (key, rowid); reports whether it existed.
func (t *Btree) DeleteKey(key []byte, rowid int64) bool {
	n, pos := t.find(key, rowid)
	if n == nil {
		return false
	}
	t.p.edit(n.pgno).remove(pos)
	return true
}

// ScanIndexRange walks index entries with lo <= key <= hi (nil bounds are
// open); fn returns false to stop.
func (t *Btree) ScanIndexRange(lo, hi []byte, fn func(key []byte, rowid int64) bool) {
	var pg uint32
	if lo == nil {
		pg = t.leftmostLeaf()
	} else {
		pg = t.findLeaf(lo, -1<<62)
	}
	for pg != 0 {
		pg = t.eachCell(pg, func(body []byte) bool {
			key, rowid := t.cellKey(body)
			if lo != nil && bytes.Compare(key, lo) < 0 {
				return true
			}
			if hi != nil && bytes.Compare(key, hi) > 0 {
				return false
			}
			t.p.e.Work(workRecDecode)
			return fn(key, rowid)
		})
	}
}

// --- Integrity check ---------------------------------------------------------

// Check validates the tree's structural invariants (ordering within and
// across pages, leaf sibling chain, reachable pages formatted correctly).
// It returns a list of problems, empty when healthy.
func (t *Btree) Check() []string {
	var problems []string
	var lastKey []byte
	var lastRowid int64 = -1 << 62
	var vals []Value // each record decodes into it, views of the page
	var err error
	seenLeaf := false
	var walk func(pg uint32, depth int)
	walk = func(pg uint32, depth int) {
		if depth > 64 {
			problems = append(problems, "depth > 64 (cycle?)")
			return
		}
		n := t.p.node(pg)
		switch n.typ() {
		case t.leaf:
			seenLeaf = true
			for i := 0; i < n.count(); i++ {
				body := n.cell(i)
				key, rowid := t.cellKey(body)
				if t.index {
					if lastKey != nil {
						if cmp := bytes.Compare(lastKey, key); cmp > 0 || (cmp == 0 && lastRowid >= rowid) {
							problems = append(problems, fmt.Sprintf("page %d: index keys out of order", pg))
						}
					}
					lastKey = append(lastKey[:0], key...)
				} else {
					if rowid <= lastRowid {
						problems = append(problems, fmt.Sprintf("page %d: rowids out of order (%d after %d)", pg, rowid, lastRowid))
					}
					if vals, err = decodeRecord(vals, body[8:]); err != nil {
						problems = append(problems, fmt.Sprintf("page %d rowid %d: %v", pg, rowid, err))
					}
				}
				lastRowid = rowid
			}
		case t.interior:
			// The walks below may evict n: pinned, its frame stays n's.
			n.pins++
			defer func() { n.pins-- }()
			for i := 0; i < n.count(); i++ {
				walk(n.child(i), depth+1)
			}
			if n.right() == 0 {
				problems = append(problems, fmt.Sprintf("page %d: interior without rightmost child", pg))
			} else {
				walk(n.right(), depth+1)
			}
		default:
			problems = append(problems, fmt.Sprintf("page %d: bad page type %d", pg, n.typ()))
		}
	}
	walk(t.root, 0)
	if !seenLeaf {
		problems = append(problems, "no leaves reachable")
	}
	return problems
}
