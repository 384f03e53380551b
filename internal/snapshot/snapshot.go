// Package snapshot defines the versioned, deterministic byte image of one
// cubicle's architectural state: its heap pages (contents and per-page MPK
// metadata), its sub-allocator free lists, its window layout, its journal
// position and the opaque per-component state blobs. The image is what the
// checkpoint manager captures at quiescent points and what a warm
// supervised restart restores instead of rebuilding from empty.
//
// The encoding is deliberately boring: a fixed magic, a version word, and
// length-prefixed little-endian records in a canonical order (pages sorted
// by page number, extents by address, components in registration order).
// Two captures of identical state are bit-identical, so images can be
// compared, hashed and replayed. Decode is strict — every length is
// bounds-checked, order is validated, trailing bytes are an error — so a
// corrupted or adversarial image fails with a typed *DecodeError instead
// of corrupting the restore path.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"slices"

	"cubicleos/internal/vm"
)

// Magic identifies a cubicle snapshot image; Version is bumped on any
// layout change (decode rejects versions it does not know).
const (
	Magic   = "CBOSNAP1"
	Version = 1
)

// Decode hard limits: an image claiming more than these is corrupt by
// definition (they are far above anything the simulated machine produces)
// and is rejected before any allocation is sized from attacker-controlled
// counts.
const (
	MaxPages      = 1 << 20
	MaxExtents    = 1 << 22
	MaxWindows    = 1 << 16
	MaxComponents = 1 << 10
	MaxBlob       = 1 << 28
	MaxName       = 1 << 12
)

// PageImage is one checkpointed page: its page number and the full
// architectural state the simulated MMU keeps per page.
type PageImage struct {
	PN   uint64
	Key  uint8 // MPK key the page was tagged with at capture
	Perm uint8
	Type uint8
	Data [vm.PageSize]byte
}

// HeapImage is the sub-allocator's bookkeeping: the sorted free list, the
// live allocation sizes (sorted by address), and the arena/live byte
// counters.
type HeapImage struct {
	Free       []vm.Extent
	Sizes      []vm.Extent
	ArenaBytes uint64
	LiveBytes  uint64
}

// WindowImage is one window owned by the cubicle at capture time. The
// quiescence rule guarantees captured windows are closed (no grantee bit
// set), so only the identity and ranges need recording.
type WindowImage struct {
	WID    uint32
	Ranges []vm.Extent
}

// ComponentImage is one component's opaque state blob, produced by its
// Snapshot hook and fed back to its Restore hook.
type ComponentImage struct {
	Name string
	Data []byte
}

// Image is the complete checkpoint of one cubicle.
type Image struct {
	Cubicle uint32
	Cycle   uint64 // virtual clock at capture
	Journal uint64 // containment-journal position at capture (0 when quiescent)
	Pages   []PageImage
	Heap    HeapImage
	Windows []WindowImage
	Comps   []ComponentImage
}

// Reset makes img an empty image of cubicle at cycle, as a new one would
// be, but for the capacity of its pages, live-block table, windows and
// components: a capture that builds its image in the one it built last
// allocates nothing once those have grown. The heap free list is dropped,
// not kept: a capture shares the allocator's own.
func (img *Image) Reset(cubicle uint32, cycle uint64) {
	*img = Image{Cubicle: cubicle, Cycle: cycle, Pages: img.Pages[:0],
		Heap: HeapImage{Sizes: img.Heap.Sizes[:0]}, Windows: img.Windows[:0], Comps: img.Comps[:0]}
}

// DecodeError reports why an image failed to decode, with the byte offset
// at which decoding stopped.
type DecodeError struct {
	Off    int
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("snapshot: corrupt image at byte %d: %s", e.Off, e.Reason)
}

// AppendEncode serializes the image, appending it to b, and returns the
// extended slice. The output is a pure function of the image's contents:
// no maps are iterated, no timestamps are stamped. b grows at most once,
// so a caller that encodes into the buffer of an image it no longer needs
// allocates nothing once that buffer has reached the image's size.
func AppendEncode(b []byte, img *Image) []byte {
	b = slices.Grow(b, encodedSize(img))
	b = append(b, Magic...)
	b = le16(b, Version)
	b = le32(b, img.Cubicle)
	b = le64(b, img.Cycle)
	b = le64(b, img.Journal)

	b = le32(b, uint32(len(img.Pages)))
	for i := range img.Pages {
		p := &img.Pages[i]
		b = le64(b, p.PN)
		b = append(b, p.Key, p.Perm, p.Type)
		b = append(b, p.Data[:]...)
	}

	b = extents(b, img.Heap.Free)
	b = extents(b, img.Heap.Sizes)
	b = le64(b, img.Heap.ArenaBytes)
	b = le64(b, img.Heap.LiveBytes)

	b = le32(b, uint32(len(img.Windows)))
	for i := range img.Windows {
		w := &img.Windows[i]
		b = le32(b, w.WID)
		b = extents(b, w.Ranges)
	}

	b = le32(b, uint32(len(img.Comps)))
	for i := range img.Comps {
		c := &img.Comps[i]
		b = le32(b, uint32(len(c.Name)))
		b = append(b, c.Name...)
		b = le32(b, uint32(len(c.Data)))
		b = append(b, c.Data...)
	}
	return b
}

func encodedSize(img *Image) int {
	n := len(Magic) + 2 + 4 + 8 + 8
	n += 4 + len(img.Pages)*(8+3+vm.PageSize)
	n += 4 + len(img.Heap.Free)*16
	n += 4 + len(img.Heap.Sizes)*16
	n += 16
	n += 4
	for i := range img.Windows {
		n += 4 + 4 + len(img.Windows[i].Ranges)*16
	}
	n += 4
	for i := range img.Comps {
		n += 4 + len(img.Comps[i].Name) + 4 + len(img.Comps[i].Data)
	}
	return n
}

// Decode parses and validates an image. It never panics on malformed
// input; any structural violation returns a *DecodeError.
func Decode(b []byte) (*Image, error) {
	d := NewReader(b)
	if string(d.Take(len(Magic))) != Magic {
		return nil, d.Fail("bad magic")
	}
	if v := d.U16(); v != Version {
		return nil, d.failf("unsupported version %d", v)
	}
	img := &Image{}
	img.Cubicle = d.U32()
	img.Cycle = d.U64()
	img.Journal = d.U64()

	np := d.Count(MaxPages, "pages")
	img.Pages = make([]PageImage, 0, min(int(np), 4096))
	var lastPN uint64
	for i := uint32(0); i < np && d.err == nil; i++ {
		var p PageImage
		p.PN = d.U64()
		meta := d.Take(3)
		if d.err == nil {
			p.Key, p.Perm, p.Type = meta[0], meta[1], meta[2]
		}
		data := d.Take(vm.PageSize)
		if d.err == nil {
			copy(p.Data[:], data)
		}
		if i > 0 && d.err == nil && p.PN <= lastPN {
			return nil, d.Fail("pages out of order")
		}
		lastPN = p.PN
		img.Pages = append(img.Pages, p)
	}

	img.Heap.Free = d.extents("heap free list")
	img.Heap.Sizes = d.extents("heap size table")
	img.Heap.ArenaBytes = d.U64()
	img.Heap.LiveBytes = d.U64()

	nw := d.Count(MaxWindows, "windows")
	img.Windows = make([]WindowImage, 0, min(int(nw), 64))
	for i := uint32(0); i < nw && d.err == nil; i++ {
		var w WindowImage
		w.WID = d.U32()
		w.Ranges = d.extents("window ranges")
		img.Windows = append(img.Windows, w)
	}

	nc := d.Count(MaxComponents, "components")
	img.Comps = make([]ComponentImage, 0, min(int(nc), 16))
	for i := uint32(0); i < nc && d.err == nil; i++ {
		var c ComponentImage
		nn := d.Count(MaxName, "component name")
		c.Name = string(d.Take(int(nn)))
		nd := d.Count(MaxBlob, "component blob")
		c.Data = append([]byte(nil), d.Take(int(nd))...)
		img.Comps = append(img.Comps, c)
	}

	if err := d.Done(); err != nil {
		return nil, err
	}
	return img, nil
}

// Reader is a bounds-checked little-endian cursor over an image or a
// component's blob. The first structural violation latches a *DecodeError
// and turns every further read into a no-op returning zero, so a decoder
// reads a whole record and checks Err once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the latched error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail latches a *DecodeError at the current offset, unless one is
// latched already, and returns the latched error.
func (r *Reader) Fail(reason string) error {
	if r.err == nil {
		r.err = &DecodeError{Off: r.off, Reason: reason}
	}
	return r.err
}

func (r *Reader) failf(format string, args ...any) error {
	return r.Fail(fmt.Sprintf(format, args...))
}

// Done returns the latched error, or one for bytes left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.Fail("trailing bytes")
	}
	return r.err
}

// Take returns the next n bytes, a view of the input.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.Fail("truncated")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	v := r.Take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	v := r.Take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	v := r.Take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	v := r.Take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// Count reads a u32 element count and rejects values past limit before
// any slice is sized from it.
func (r *Reader) Count(limit uint32, what string) uint32 {
	n := r.U32()
	if r.err == nil && n > limit {
		r.failf("%s count %d exceeds limit %d", what, n, limit)
		return 0
	}
	return n
}

// extents reads a length-prefixed extent list, validating address order.
func (r *Reader) extents(what string) []vm.Extent {
	n := r.Count(MaxExtents, what)
	out := make([]vm.Extent, 0, min(int(n), 64))
	var last vm.Addr
	for i := uint32(0); i < n && r.err == nil; i++ {
		e := vm.Extent{Addr: vm.Addr(r.U64()), Size: r.U64()}
		if i > 0 && r.err == nil && e.Addr <= last {
			r.failf("%s out of order", what)
			return nil
		}
		last = e.Addr
		out = append(out, e)
	}
	return out
}

func le16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func extents(b []byte, es []vm.Extent) []byte {
	b = le32(b, uint32(len(es)))
	for _, e := range es {
		b = le64(b, uint64(e.Addr))
		b = le64(b, e.Size)
	}
	return b
}
