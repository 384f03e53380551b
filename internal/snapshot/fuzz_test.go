package snapshot

import (
	"bytes"
	"testing"
)

// FuzzSnapshotDecode throws arbitrary bytes at the strict decoder: it must
// never panic, and any image it accepts must re-encode bit-identically
// (Decode and AppendEncode are exact inverses on the set of valid images).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(AppendEncode(nil, &Image{}))
	f.Add(AppendEncode(nil, sample()))
	trunc := AppendEncode(nil, sample())
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendEncode(nil, img), data) {
			t.Fatalf("accepted image does not re-encode to its input (%d bytes)", len(data))
		}
	})
}
