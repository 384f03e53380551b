package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"cubicleos/internal/vm"
)

// sample builds a representative image exercising every record type.
func sample() *Image {
	img := &Image{
		Cubicle: 5,
		Cycle:   123_456_789,
		Journal: 0,
		Heap: HeapImage{
			Free:       []vm.Extent{{Addr: 0x1000, Size: 0x2000}, {Addr: 0x8000, Size: 0x1000}},
			Sizes:      []vm.Extent{{Addr: 0x3000, Size: 64}, {Addr: 0x3040, Size: 4096}},
			ArenaBytes: 64 * 4096,
			LiveBytes:  4160,
		},
		Windows: []WindowImage{
			{WID: 1, Ranges: []vm.Extent{{Addr: 0x3000, Size: 4096}}},
			{WID: 3, Ranges: nil},
		},
		Comps: []ComponentImage{
			{Name: "RAMFS", Data: []byte{1, 2, 3, 4}},
			{Name: "EMPTY", Data: nil},
		},
	}
	for i, pn := range []uint64{3, 4, 9} {
		p := PageImage{PN: pn, Key: uint8(i + 1), Perm: 3, Type: 1}
		for j := range p.Data {
			p.Data[j] = byte(pn + uint64(j))
		}
		img.Pages = append(img.Pages, p)
	}
	return img
}

func TestRoundTrip(t *testing.T) {
	img := sample()
	enc := AppendEncode(nil, img)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// Normalise nil-vs-empty slices the decoder materialises.
	if !equivalent(img, got) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", img, got)
	}
	// Deterministic: encoding the decoded image reproduces the bytes.
	if !bytes.Equal(enc, AppendEncode(nil, got)) {
		t.Fatal("re-encode is not bit-identical")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := AppendEncode(nil, sample()), AppendEncode(nil, sample())
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same image differ")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := AppendEncode(nil, sample())
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXXXXXX"), enc[8:]...),
		"truncated": enc[:len(enc)-3],
		"trailing":  append(append([]byte{}, enc...), 0xFF),
		"version":   append(append([]byte{}, enc[:8]...), append([]byte{0xFF, 0x7F}, enc[10:]...)...),
		// The page count lives right after the 30-byte header.
		"huge count": func() []byte { b := append([]byte{}, enc...); copy(b[30:], []byte{0xFF, 0xFF, 0xFF, 0xFF}); return b }(),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode accepted corrupt image", name)
		}
	}
}

func TestDecodeRejectsUnorderedPages(t *testing.T) {
	img := sample()
	img.Pages[0].PN, img.Pages[1].PN = img.Pages[1].PN, img.Pages[0].PN
	if _, err := Decode(AppendEncode(nil, img)); err == nil {
		t.Fatal("decode accepted pages out of order")
	}
}

func equivalent(a, b *Image) bool {
	return reflect.DeepEqual(norm(a), norm(b))
}

// norm maps nil slices to empty ones so DeepEqual compares structure.
func norm(img *Image) *Image {
	c := *img
	if c.Pages == nil {
		c.Pages = []PageImage{}
	}
	if c.Heap.Free == nil {
		c.Heap.Free = []vm.Extent{}
	}
	if c.Heap.Sizes == nil {
		c.Heap.Sizes = []vm.Extent{}
	}
	if c.Windows == nil {
		c.Windows = []WindowImage{}
	}
	for i := range c.Windows {
		if c.Windows[i].Ranges == nil {
			c.Windows[i].Ranges = []vm.Extent{}
		}
	}
	if c.Comps == nil {
		c.Comps = []ComponentImage{}
	}
	for i := range c.Comps {
		if c.Comps[i].Data == nil {
			c.Comps[i].Data = []byte{}
		}
	}
	return &c
}
