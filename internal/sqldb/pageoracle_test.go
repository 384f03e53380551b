package sqldb

import (
	"bytes"
	"encoding/binary"
)

// This file is the B+tree page algorithm as it was before pages were
// edited in place — decode every cell of the page into a list, edit the
// list, encode the page again through a zeroed scratch — kept, statement
// for statement, as the byte oracle of FuzzPageOps: the page images of
// the in-place code must be identical to the images this produces. It
// works on a bare map of pages and allocates page numbers by counting
// up, as Pager.Allocate does while the freelist is empty.
type oracle struct {
	pages map[uint32][]byte
	next  *uint32 // the highest page number in use; shared by the trees of one file
	root  uint32
	index bool
}

func newOracle(pages map[uint32][]byte, next *uint32, index bool) *oracle {
	t := &oracle{pages: pages, next: next, index: index}
	t.root = t.alloc()
	initBtreePage(t.page(t.root), t.leafType())
	return t
}

func (t *oracle) page(pg uint32) []byte { return t.pages[pg] }

func (t *oracle) alloc() uint32 {
	*t.next++
	t.pages[*t.next] = make([]byte, PageSize)
	return *t.next
}

func (t *oracle) leafType() byte {
	if t.index {
		return pgIndexLeaf
	}
	return pgTableLeaf
}

func (t *oracle) interiorType() byte {
	if t.index {
		return pgIndexInterior
	}
	return pgTableInterior
}

func (t *oracle) insertRow(rowid int64, record []byte) {
	t.insert(t.root, nil, rowid, encodeTCell(pgTableLeaf, tcell{rowid: rowid, payload: record}))
}

func (t *oracle) insertKey(key []byte, rowid int64) {
	t.insert(t.root, key, rowid, encodeICell(pgIndexLeaf, icell{key: key, rowid: rowid}))
}

func (t *oracle) findLeaf(key []byte, rowid int64) uint32 {
	pg := t.root
	for {
		typ, right, cells := decodePage(t.page(pg))
		if typ == t.leafType() {
			return pg
		}
		pos := t.searchCells(typ, cells, key, rowid)
		if pos < len(cells) {
			if t.index {
				pg = decodeICell(typ, cells[pos]).child
			} else {
				pg = decodeTCell(typ, cells[pos]).child
			}
		} else {
			pg = right
		}
	}
}

// delete is the old DeleteRow (key nil) and DeleteKey.
func (t *oracle) delete(key []byte, rowid int64) bool {
	leaf := t.findLeaf(key, rowid)
	typ, right, cells := decodePage(t.page(leaf))
	pos := t.searchCells(typ, cells, key, rowid)
	if pos >= len(cells) {
		return false
	}
	if t.index {
		if c := decodeICell(typ, cells[pos]); !bytes.Equal(c.key, key) || c.rowid != rowid {
			return false
		}
	} else if decodeTCell(typ, cells[pos]).rowid != rowid {
		return false
	}
	cells = append(cells[:pos], cells[pos+1:]...)
	if !encodePage(t.page(leaf), typ, right, cells) {
		panic("sqldb: delete overflow")
	}
	return true
}

// tcell is a decoded table-tree cell: leaf = (rowid, record); interior =
// (maxRowid, child) meaning child holds rowids <= maxRowid.
type tcell struct {
	rowid   int64
	payload []byte // leaf only
	child   uint32 // interior only
}

// icell is a decoded index-tree cell: leaf = (key, rowid); interior =
// (sepKey, child).
type icell struct {
	key   []byte
	rowid int64
	child uint32
}

// --- Cell codecs -------------------------------------------------------------

// encodeTCell builds a table-cell body. Cells travel as bodies; only
// encodePage adds the on-page u16 length prefix.
func encodeTCell(typ byte, c tcell) []byte {
	if typ == pgTableLeaf {
		body := make([]byte, 8, 8+len(c.payload))
		binary.LittleEndian.PutUint64(body, uint64(c.rowid))
		return append(body, c.payload...)
	}
	body := make([]byte, 12)
	binary.LittleEndian.PutUint64(body, uint64(c.rowid))
	binary.LittleEndian.PutUint32(body[8:], c.child)
	return body
}

// encodeICell builds an index-cell body (see encodeTCell). Interior
// cells carry the full (key, rowid) separator so that duplicate keys
// still have a strict total order across children.
func encodeICell(typ byte, c icell) []byte {
	body := make([]byte, 4, 4+len(c.key)+12)
	binary.LittleEndian.PutUint32(body, uint32(len(c.key)))
	body = append(body, c.key...)
	var r [8]byte
	binary.LittleEndian.PutUint64(r[:], uint64(c.rowid))
	body = append(body, r[:]...)
	if typ == pgIndexLeaf {
		return body
	}
	var ch [4]byte
	binary.LittleEndian.PutUint32(ch[:], c.child)
	return append(body, ch[:]...)
}

// decodePage splits a page into its raw cell bodies.
func decodePage(data []byte) (typ byte, right uint32, cells [][]byte) {
	typ = data[0]
	n := int(binary.LittleEndian.Uint16(data[1:]))
	right = binary.LittleEndian.Uint32(data[3:])
	off := pgHdrSize
	cells = make([][]byte, n)
	for i := 0; i < n; i++ {
		l := int(binary.LittleEndian.Uint16(data[off:]))
		cells[i] = data[off+2 : off+2+l]
		off += 2 + l
	}
	return typ, right, cells
}

// encodePage writes cells back into a page; returns false if they do not
// fit. Cell slices may alias the destination page (decodePage returns
// views into it), so the page is assembled in a scratch buffer first.
func encodePage(data []byte, typ byte, right uint32, cells [][]byte) bool {
	need := pgHdrSize
	for _, c := range cells {
		need += 2 + len(c)
	}
	if need > PageSize {
		return false
	}
	var scratch [PageSize]byte
	scratch[0] = typ
	binary.LittleEndian.PutUint16(scratch[1:], uint16(len(cells)))
	binary.LittleEndian.PutUint32(scratch[3:], right)
	off := pgHdrSize
	for _, c := range cells {
		binary.LittleEndian.PutUint16(scratch[off:], uint16(len(c)))
		copy(scratch[off+2:], c)
		off += 2 + len(c)
	}
	copy(data, scratch[:])
	return true
}

func decodeTCell(typ byte, body []byte) tcell {
	c := tcell{rowid: int64(binary.LittleEndian.Uint64(body))}
	if typ == pgTableLeaf {
		c.payload = body[8:]
	} else {
		c.child = binary.LittleEndian.Uint32(body[8:])
	}
	return c
}

func decodeICell(typ byte, body []byte) icell {
	kl := int(binary.LittleEndian.Uint32(body))
	c := icell{key: body[4 : 4+kl]}
	rest := body[4+kl:]
	c.rowid = int64(binary.LittleEndian.Uint64(rest))
	if typ != pgIndexLeaf {
		c.child = binary.LittleEndian.Uint32(rest[8:])
	}
	return c
}

// cellKeyLess orders a search key against a cell.
func (t *oracle) searchCells(typ byte, cells [][]byte, key []byte, rowid int64) int {
	// Binary search for the first cell with cellKey >= key.
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cellLess(typ, cells[mid], key, rowid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cellLess reports whether the cell sorts strictly before (key, rowid).
func (t *oracle) cellLess(typ byte, body []byte, key []byte, rowid int64) bool {
	if t.index {
		c := decodeICell(typ, body)
		if cmp := bytes.Compare(c.key, key); cmp != 0 {
			return cmp < 0
		}
		return c.rowid < rowid
	}
	c := decodeTCell(typ, body)
	return c.rowid < rowid
}

// oldSplit describes a page split propagating upward: newPg holds the upper
// half; sepKey/sepRowid is the max key of the lower half.
type oldSplit struct {
	sepKey   []byte
	sepRowid int64
	newPg    uint32
}

// insert walks down from page pg and inserts the cell; returns a split if
// the page overflowed.
func (t *oracle) insert(pg uint32, key []byte, rowid int64, cell []byte) *oldSplit {
	data := t.page(pg)
	typ, right, cells := decodePage(data)
	if typ == t.leafType() {
		pos := t.searchCells(typ, cells, key, rowid)
		// Replace in place on exact match (table trees: same rowid).
		if !t.index && pos < len(cells) {
			if c := decodeTCell(typ, cells[pos]); c.rowid == rowid {
				cells[pos] = cell
				return t.writeOrSplit(pg, typ, right, cells, pos)
			}
		}
		cells = append(cells, nil)
		copy(cells[pos+1:], cells[pos:])
		cells[pos] = cell
		return t.writeOrSplit(pg, typ, right, cells, pos)
	}
	// Interior: find child to descend into.
	pos := t.searchCells(typ, cells, key, rowid)
	var child uint32
	if pos < len(cells) {
		if t.index {
			child = decodeICell(typ, cells[pos]).child
		} else {
			child = decodeTCell(typ, cells[pos]).child
		}
	} else {
		child = right
	}
	sp := t.insert(child, key, rowid, cell)
	if sp == nil {
		return nil
	}
	// The child split: child keeps the lower half (keys <= sep), the new
	// page holds the upper half. Insert a separator cell pointing at the
	// lower page and relink.
	var sepCell []byte
	if t.index {
		sepCell = encodeICell(typ, icell{key: sp.sepKey, rowid: sp.sepRowid, child: child})
	} else {
		sepCell = encodeTCell(typ, tcell{rowid: sp.sepRowid, child: child})
	}
	// The existing cell at pos (or right pointer) must now point at newPg.
	if pos < len(cells) {
		if t.index {
			c := decodeICell(typ, cells[pos])
			c.child = sp.newPg
			cells[pos] = encodeICell(typ, c)
		} else {
			c := decodeTCell(typ, cells[pos])
			c.child = sp.newPg
			cells[pos] = encodeTCell(typ, c)
		}
	} else {
		right = sp.newPg
	}
	cells = append(cells, nil)
	copy(cells[pos+1:], cells[pos:])
	cells[pos] = sepCell
	return t.writeOrSplit(pg, typ, right, cells, pos)
}

// writeOrSplit stores cells into pg, splitting if they overflow. hint is
// the position that was just modified (unused, kept for clarity).
func (t *oracle) writeOrSplit(pg uint32, typ byte, right uint32, cells [][]byte, hint int) *oldSplit {
	if encodePage(t.page(pg), typ, right, cells) {
		return nil
	}
	// Split: lower half stays in pg, upper half moves to a fresh page.
	// Cell slices alias pg's buffer, which the encodePage calls below
	// rewrite with shifted offsets — so every cell that outlives the
	// rewrite (the separator, and the halves themselves) is copied first.
	for i, c := range cells {
		cells[i] = append(make([]byte, 0, len(c)), c...)
	}
	mid := len(cells) / 2
	if mid == 0 {
		mid = 1
	}
	lower, upper := cells[:mid], cells[mid:]
	newPg := t.alloc()

	isLeaf := typ == t.leafType()
	var newRight, lowRight uint32
	if isLeaf {
		// Leaf split: sibling links pg -> newPg -> old right.
		newRight = right
		lowRight = newPg
	} else {
		// Interior split: the separator between halves is pushed up; the
		// lower page's rightmost child becomes the separator's child.
		sep := upper[0]
		upper = upper[1:]
		newRight = right
		if t.index {
			lowRight = decodeICell(typ, sep).child
		} else {
			lowRight = decodeTCell(typ, sep).child
		}
		// Separator key travels up via the returned split.
		if !encodePage(t.page(newPg), typ, newRight, upper) {
			panic("sqldb: interior split still overflows")
		}
		if !encodePage(t.page(pg), typ, lowRight, lower) {
			panic("sqldb: interior split lower overflows")
		}
		sp := &oldSplit{newPg: newPg}
		if t.index {
			c := decodeICell(typ, sep)
			sp.sepKey = append([]byte{}, c.key...)
			sp.sepRowid = c.rowid
		} else {
			sp.sepRowid = decodeTCell(typ, sep).rowid
		}
		return t.maybeGrowRoot(pg, sp)
	}
	if !encodePage(t.page(newPg), typ, newRight, upper) {
		panic("sqldb: leaf split still overflows")
	}
	if !encodePage(t.page(pg), typ, lowRight, lower) {
		panic("sqldb: leaf split lower overflows")
	}
	sp := &oldSplit{newPg: newPg}
	last := lower[len(lower)-1]
	if t.index {
		c := decodeICell(typ, last)
		sp.sepKey = append([]byte{}, c.key...)
		sp.sepRowid = c.rowid
	} else {
		sp.sepRowid = decodeTCell(typ, last).rowid
	}
	return t.maybeGrowRoot(pg, sp)
}

// maybeGrowRoot handles a split reaching the root: the root's content
// moves to a fresh page so the root page number stays stable.
func (t *oracle) maybeGrowRoot(pg uint32, sp *oldSplit) *oldSplit {
	if pg != t.root || sp == nil {
		return sp
	}
	// Move current root content to a new page.
	moved := t.alloc()
	rootData := t.page(t.root)
	typ, right, cells := decodePage(rootData)
	if !encodePage(t.page(moved), typ, right, cells) {
		panic("sqldb: root move overflows")
	}
	var sepCell []byte
	it := t.interiorType()
	if t.index {
		sepCell = encodeICell(it, icell{key: sp.sepKey, rowid: sp.sepRowid, child: moved})
	} else {
		sepCell = encodeTCell(it, tcell{rowid: sp.sepRowid, child: moved})
	}
	if !encodePage(t.page(t.root), it, sp.newPg, [][]byte{sepCell}) {
		panic("sqldb: new root overflows")
	}
	return nil
}
