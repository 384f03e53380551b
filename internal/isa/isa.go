// Package isa models the object-code side of CubicleOS: component images
// with code and data sections, export symbol tables (the equivalent of
// Unikraft's exportsyms.uk), and the load-time binary scan of §5.4 that
// refuses to load code containing instructions which could undermine the
// isolation mechanisms — system calls and wrpkru.
//
// Component logic itself executes as Go functions in the simulator, but
// every component still carries synthetic code bytes so that the loader's
// integrity scan, the execute-only page policy, and the guard-page layout
// of §5.5 operate on real byte streams, including forbidden sequences that
// span page boundaries.
//
// Those bytes are the same in every boot, so the builder's images and the
// guard pages are built once per process and shared read-only by every
// monitor (DefaultImage, GuardPage); Synthesize stays a pure generator,
// for images a component brings itself.
package isa

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// Forbidden x86-64 instruction encodings the loader scans for (§5.4).
var (
	// OpWRPKRU is the encoding of the wrpkru instruction (0F 01 EF).
	OpWRPKRU = []byte{0x0F, 0x01, 0xEF}
	// OpSYSCALL is the encoding of the syscall instruction (0F 05).
	OpSYSCALL = []byte{0x0F, 0x05}
	// OpINT80 is the legacy int $0x80 system-call encoding (CD 80).
	OpINT80 = []byte{0xCD, 0x80}
	// OpNOP is a one-byte no-op used to pad guard pages so that entering
	// them anywhere but the first instruction faults into padding.
	OpNOP = byte(0x90)
	// OpJMP marks the relative jump placed in a guard page.
	OpJMP = byte(0xE9)
	// OpRET terminates synthetic function bodies.
	OpRET = byte(0xC3)
)

// forbidden lists all instruction encodings the loader rejects.
var forbidden = [][]byte{OpWRPKRU, OpSYSCALL, OpINT80}

// ScanResult reports a forbidden instruction found in a code stream.
type ScanResult struct {
	Offset int    // byte offset of the first byte of the instruction
	Name   string // mnemonic of the forbidden instruction
}

func (r ScanResult) String() string {
	return fmt.Sprintf("forbidden instruction %s at offset %#x", r.Name, r.Offset)
}

// nameOf returns the mnemonic for a forbidden encoding.
func nameOf(seq []byte) string {
	switch {
	case len(seq) == 3 && seq[0] == 0x0F && seq[1] == 0x01 && seq[2] == 0xEF:
		return "wrpkru"
	case len(seq) == 2 && seq[0] == 0x0F && seq[1] == 0x05:
		return "syscall"
	case len(seq) == 2 && seq[0] == 0xCD && seq[1] == 0x80:
		return "int 0x80"
	}
	return "unknown"
}

// Scan searches code for forbidden instruction encodings and returns every
// match. The scan is a plain byte-sequence search, exactly as the loader
// of the paper does it ("scans code pages for binary sequences containing
// system call or wrpkru instructions"), so sequences spanning page
// boundaries are found as long as the whole section is scanned at once.
func Scan(code []byte) []ScanResult {
	var out []ScanResult
	for i := 0; i < len(code); i++ {
		if c := code[i]; c != 0x0F && c != 0xCD {
			continue // no forbidden encoding starts with any other byte
		}
		for _, seq := range forbidden {
			if i+len(seq) <= len(code) && match(code[i:], seq) {
				out = append(out, ScanResult{Offset: i, Name: nameOf(seq)})
			}
		}
	}
	return out
}

func match(b, seq []byte) bool {
	for i, c := range seq {
		if b[i] != c {
			return false
		}
	}
	return true
}

// Symbol is an entry in a component's export table: a named function at an
// offset within the image's code section.
type Symbol struct {
	Name string
	Off  uint64 // offset within the code section
	Size uint64 // size of the function body in bytes
}

// SectionKind distinguishes image sections.
type SectionKind uint8

// Section kinds found in a component image.
const (
	SecCode SectionKind = iota // execute-only after loading
	SecRodata
	SecData
)

func (k SectionKind) String() string {
	switch k {
	case SecCode:
		return ".text"
	case SecRodata:
		return ".rodata"
	case SecData:
		return ".data"
	}
	return fmt.Sprintf("SectionKind(%d)", uint8(k))
}

// Section is one loadable section of a component image.
type Section struct {
	Kind SectionKind
	Data []byte
	// shared is set only on the sections of a DefaultImage.
	shared *pages
}

// pages is a section's bytes laid out in page-sized frames, the last one
// zero-padded: data views the frames.
type pages struct {
	data   []byte
	frames []*[pageSize]byte
}

// Frames returns the section's pages as process-wide read-only frames a
// loader may map in place of copies. It returns nil when Data is the
// caller's own: an image the component brought, one from Synthesize, or a
// DefaultImage section whose Data was replaced, so a loader maps exactly
// the bytes it scanned. Nothing may write the frames.
func (s *Section) Frames() []*[pageSize]byte {
	if p := s.shared; p != nil && len(s.Data) == len(p.data) && (len(s.Data) == 0 || &s.Data[0] == &p.data[0]) {
		return p.frames
	}
	return nil
}

// Image is a loadable component image: sections plus the export symbol
// table. It corresponds to one Unikraft component compiled as a dynamic
// library by the CubicleOS builder (§5.2).
type Image struct {
	Name     string
	Sections []Section
	Exports  []Symbol
}

// FindExport returns the export with the given name, or nil.
func (im *Image) FindExport(name string) *Symbol {
	for i := range im.Exports {
		if im.Exports[i].Name == name {
			return &im.Exports[i]
		}
	}
	return nil
}

// SynthOptions controls synthetic image generation.
type SynthOptions struct {
	// FuncSize is the size in bytes of each generated function body
	// (minimum 16). Zero selects a default of 96.
	FuncSize int
	// DataSize is the size of the generated .data section. Zero selects
	// one page worth of data.
	DataSize int
	// InjectForbidden, when non-empty, splices the given instruction
	// encoding into the middle of the code section; used by tests and the
	// isolation-demo example to exercise the loader's scan.
	InjectForbidden []byte
	// InjectAt places the injected sequence at this code offset; -1 (or
	// an out-of-range value) centres it.
	InjectAt int
	// Seed makes generation deterministic.
	Seed int64
}

// Synthesize builds a synthetic component image exporting the given
// function names. Function bodies are filler bytes guaranteed not to
// contain forbidden encodings (every emitted byte has the high nibble
// masked away from the 0x0F/0xCD escape values) terminated by a RET.
func Synthesize(name string, exports []string, opt SynthOptions) *Image {
	fs := opt.FuncSize
	if fs < 16 {
		fs = 96
	}
	ds := opt.DataSize
	if ds <= 0 {
		ds = 4096
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ int64(len(name))*7919))
	code := make([]byte, 0, fs*len(exports))
	syms := make([]Symbol, 0, len(exports))
	for _, fn := range exports {
		off := uint64(len(code))
		body := make([]byte, fs)
		for i := range body {
			b := byte(rng.Intn(256))
			// Avoid the escape bytes that begin forbidden encodings so
			// the filler can never contain one by accident.
			if b == 0x0F || b == 0xCD {
				b = OpNOP
			}
			body[i] = b
		}
		body[fs-1] = OpRET
		code = append(code, body...)
		syms = append(syms, Symbol{Name: fn, Off: off, Size: uint64(fs)})
	}
	if len(opt.InjectForbidden) > 0 {
		at := opt.InjectAt
		if at < 0 || at+len(opt.InjectForbidden) > len(code) {
			at = len(code) / 2
		}
		copy(code[at:], opt.InjectForbidden)
	}
	data := make([]byte, ds)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return &Image{
		Name: name,
		Sections: []Section{
			{Kind: SecCode, Data: code},
			{Kind: SecData, Data: data},
		},
		Exports: syms,
	}
}

// pageSize is the size of a loaded page, and of a guard page.
const pageSize = 4096

// GuardPageSize is the size of a cross-cubicle call guard page (§5.5).
const GuardPageSize = pageSize

// nopPage is the template every guard page is written from.
var nopPage = func() (p [GuardPageSize]byte) {
	for i := range p {
		p[i] = OpNOP
	}
	return p
}()

// The process-wide images and guard pages, built once and never written:
// every monitor of the process, on whichever goroutine boots it, shares
// them, so one lock guards them (DESIGN.md §14, "The locks outside the
// runtime").
var (
	cacheMu sync.Mutex
	images  = map[string]*Image{} // by name, NUL, exports NUL-separated
	guards  = map[uint32]*[GuardPageSize]byte{}
	keyBuf  []byte // the look-up key, built under cacheMu
)

// DefaultImage returns the image the builder gives a component that
// brings none of its own (§5.2): Synthesize's, with the builder's seed,
// exporting exactly the given functions. It is built once per process
// and name and export list. Each call returns an Image of the caller's
// own over shared section bytes, which nothing may write; each section
// also offers them as page frames (Section.Frames).
func DefaultImage(name string, exports []string) *Image {
	cacheMu.Lock()
	keyBuf = append(append(keyBuf[:0], name...), 0)
	for _, ex := range exports {
		keyBuf = append(append(keyBuf, ex...), 0)
	}
	im := images[string(keyBuf)]
	if im == nil {
		im = paged(Synthesize(name, exports, SynthOptions{Seed: int64(len(name)) * 1315423911}))
		images[string(keyBuf)] = im
	}
	cacheMu.Unlock()
	own := *im
	own.Sections = slices.Clone(im.Sections)
	own.Exports = im.Exports[:len(im.Exports):len(im.Exports)]
	return &own
}

// paged moves each of im's sections into page-sized frames and returns
// im.
func paged(im *Image) *Image {
	for i := range im.Sections {
		s := &im.Sections[i]
		n := (len(s.Data) + pageSize - 1) / pageSize
		buf := make([]byte, n*pageSize)
		copy(buf, s.Data)
		p := &pages{data: buf[:len(s.Data):len(s.Data)], frames: make([]*[pageSize]byte, n)}
		for j := range p.frames {
			p.frames[j] = (*[pageSize]byte)(buf[j*pageSize:])
		}
		s.Data, s.shared = p.data, p
	}
	return im
}

// GuardPage returns the process-wide, read-only frame of the guard page
// that enters trampoline trampolineID, built once per id: a wrpkru
// instruction enabling execution of the trampoline in the monitor's
// cubicle, a jump to the trampoline, then no-ops so that starting
// execution anywhere but the first instruction faults (§5.5). The wrpkru
// here is legitimate: guard pages are generated by the trusted loader, not
// scanned component code. Nothing may write the frame.
func GuardPage(trampolineID uint32) *[GuardPageSize]byte {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	p := guards[trampolineID]
	if p == nil {
		p = new([GuardPageSize]byte)
		*p = nopPage
		n := copy(p[:], OpWRPKRU)
		p[n] = OpJMP
		binary.LittleEndian.PutUint32(p[n+1:], trampolineID)
		guards[trampolineID] = p
	}
	return p
}

// GuardEntryOK reports whether a control transfer into a guard page at the
// given offset is the intended entry point (offset 0). Any other offset
// lands in the nop slide or mid-instruction and must fault.
func GuardEntryOK(off uint64) bool { return off == 0 }
