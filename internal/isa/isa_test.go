package isa

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestScanFindsWRPKRU(t *testing.T) {
	code := append(append([]byte{0x90, 0x90}, OpWRPKRU...), 0xC3)
	hits := Scan(code)
	if len(hits) != 1 || hits[0].Offset != 2 || hits[0].Name != "wrpkru" {
		t.Fatalf("Scan = %v", hits)
	}
}

func TestScanFindsSyscallVariants(t *testing.T) {
	code := append([]byte{}, OpSYSCALL...)
	code = append(code, 0x90)
	code = append(code, OpINT80...)
	hits := Scan(code)
	if len(hits) != 2 {
		t.Fatalf("Scan found %d hits, want 2: %v", len(hits), hits)
	}
	if hits[0].Name != "syscall" || hits[1].Name != "int 0x80" {
		t.Errorf("Scan names = %q, %q", hits[0].Name, hits[1].Name)
	}
}

// TestScanAcrossPageBoundary plants a wrpkru so that its bytes span a
// 4096-byte page boundary; the loader scans whole sections so it must
// still be found.
func TestScanAcrossPageBoundary(t *testing.T) {
	code := make([]byte, 2*4096)
	copy(code[4095:], OpWRPKRU) // bytes at 4095, 4096, 4097
	hits := Scan(code)
	if len(hits) != 1 || hits[0].Offset != 4095 {
		t.Fatalf("Scan across page boundary = %v", hits)
	}
}

func TestScanCleanCode(t *testing.T) {
	code := bytes.Repeat([]byte{0x90, 0x48, 0x89, 0xE5}, 1024)
	if hits := Scan(code); len(hits) != 0 {
		t.Fatalf("clean code flagged: %v", hits)
	}
}

func TestScanEmptyAndShort(t *testing.T) {
	if hits := Scan(nil); hits != nil {
		t.Error("Scan(nil) returned hits")
	}
	if hits := Scan([]byte{0x0F}); hits != nil {
		t.Error("Scan of truncated escape byte returned hits")
	}
}

// TestScanNeverMisses: property — splicing a forbidden sequence at any
// offset of any clean byte stream is always detected.
func TestScanNeverMisses(t *testing.T) {
	f := func(raw []byte, off uint16, which uint8) bool {
		code := make([]byte, len(raw)+8)
		for i, b := range raw {
			if b == 0x0F || b == 0xCD {
				b = 0x90
			}
			code[i] = b
		}
		seq := [][]byte{OpWRPKRU, OpSYSCALL, OpINT80}[which%3]
		at := int(off) % (len(code) - len(seq) + 1)
		copy(code[at:], seq)
		for _, h := range Scan(code) {
			if h.Offset == at {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynthesizeExports(t *testing.T) {
	im := Synthesize("vfs", []string{"vfs_open", "vfs_write"}, SynthOptions{})
	if im.Name != "vfs" {
		t.Errorf("image name %q", im.Name)
	}
	if im.FindExport("vfs_open") == nil || im.FindExport("vfs_write") == nil {
		t.Fatal("exports missing")
	}
	if im.FindExport("vfs_close") != nil {
		t.Error("undeclared export present")
	}
	code := im.CodeSection()
	if code == nil || len(code.Data) == 0 {
		t.Fatal("no code section")
	}
	for _, ex := range im.Exports {
		if code.Data[ex.Off+ex.Size-1] != OpRET {
			t.Errorf("function %s does not end in RET", ex.Name)
		}
	}
}

func TestSynthesizedCodeIsClean(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		im := Synthesize("c", []string{"a", "b", "c"}, SynthOptions{Seed: seed, FuncSize: 256})
		if hits := Scan(im.CodeSection().Data); len(hits) != 0 {
			t.Fatalf("seed %d: synthesized code contains forbidden sequence %v", seed, hits)
		}
	}
}

func TestSynthesizeInjectForbidden(t *testing.T) {
	im := Synthesize("evil", []string{"f"}, SynthOptions{InjectForbidden: OpWRPKRU, InjectAt: -1})
	hits := Scan(im.CodeSection().Data)
	if len(hits) == 0 {
		t.Fatal("injected wrpkru not found by scan")
	}
	if hits[0].Name != "wrpkru" {
		t.Errorf("hit name %q", hits[0].Name)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize("x", []string{"f", "g"}, SynthOptions{Seed: 42})
	b := Synthesize("x", []string{"f", "g"}, SynthOptions{Seed: 42})
	if !bytes.Equal(a.CodeSection().Data, b.CodeSection().Data) {
		t.Error("same seed produced different code")
	}
}

func TestBuildGuardPage(t *testing.T) {
	page := GuardPage(0xDEADBEEF)[:]
	if !bytes.HasPrefix(page, OpWRPKRU) {
		t.Error("guard page does not start with wrpkru")
	}
	if page[3] != OpJMP {
		t.Error("guard page missing jump after wrpkru")
	}
	id := uint32(page[4]) | uint32(page[5])<<8 | uint32(page[6])<<16 | uint32(page[7])<<24
	if id != 0xDEADBEEF {
		t.Errorf("guard page jump target %#x", id)
	}
	for i := 8; i < GuardPageSize; i++ {
		if page[i] != OpNOP {
			t.Fatalf("guard page byte %d is %#x, want NOP", i, page[i])
		}
	}
}

func TestGuardEntryOK(t *testing.T) {
	if !GuardEntryOK(0) {
		t.Error("entry at offset 0 rejected")
	}
	for _, off := range []uint64{1, 2, 3, 8, 4095} {
		if GuardEntryOK(off) {
			t.Errorf("entry at offset %d accepted", off)
		}
	}
}

func TestSectionKindString(t *testing.T) {
	if SecCode.String() != ".text" || SecRodata.String() != ".rodata" || SecData.String() != ".data" {
		t.Error("SectionKind.String mismatch")
	}
}

// TestDefaultImageIsSynthesize: the cached image is Synthesize's with the
// builder's seed; every call gets a header of its own over the same
// bytes, which its frames hold page by page, zero-padded.
func TestDefaultImageIsSynthesize(t *testing.T) {
	for _, tc := range []struct {
		name    string
		exports []string
	}{{"VFSCORE", []string{"vfs_open", "vfs_read"}}, {"VFSCORE", []string{"vfs_open"}}, {"LWIP", make([]string, 100)}, {"NONE", nil}} {
		want := Synthesize(tc.name, tc.exports, SynthOptions{Seed: int64(len(tc.name)) * 1315423911})
		a, b := DefaultImage(tc.name, tc.exports), DefaultImage(tc.name, tc.exports)
		if a == b {
			t.Fatal("two calls returned one header")
		}
		if a.Name != want.Name || !slices.Equal(a.Exports, want.Exports) || len(a.Sections) != len(want.Sections) {
			t.Fatalf("%s %d: header differs from Synthesize's", tc.name, len(tc.exports))
		}
		for i, s := range a.Sections {
			w := want.Sections[i]
			if s.Kind != w.Kind || !bytes.Equal(s.Data, w.Data) {
				t.Errorf("%s %d: section %d differs from Synthesize's", tc.name, len(tc.exports), i)
			}
			var framed []byte
			for _, f := range s.Frames() {
				framed = append(framed, f[:]...)
			}
			if len(framed) != (len(s.Data)+GuardPageSize-1)/GuardPageSize*GuardPageSize ||
				!bytes.Equal(framed[:len(s.Data)], s.Data) || slices.ContainsFunc(framed[len(s.Data):], func(c byte) bool { return c != 0 }) {
				t.Errorf("%s %d: section %d's frames are not its bytes, zero-padded", tc.name, len(tc.exports), i)
			}
			if w.Frames() != nil {
				t.Error("a synthesized section offers frames")
			}
		}
		if len(want.Sections[0].Data) > 1 {
			b.Sections[0].Data = append([]byte(nil), b.Sections[0].Data...)
			if b.Sections[0].Frames() != nil {
				t.Error("a section whose Data was replaced still offers the shared frames")
			}
			b.Sections[1].Data = b.Sections[1].Data[:len(b.Sections[1].Data)-1]
			if b.Sections[1].Frames() != nil {
				t.Error("a section whose Data was cut still offers the shared frames")
			}
		}
		a.Sections = append(a.Sections, Section{Kind: SecRodata})
		a.Sections[0] = Section{}
		if c := DefaultImage(tc.name, tc.exports); len(c.Sections) != len(want.Sections) || !bytes.Equal(c.Sections[0].Data, want.Sections[0].Data) {
			t.Error("editing one call's section list reached the next call's")
		}
	}
}
