package sqldb

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// numInputs are texts for Value.Num and Truthy: numbers in every syntax
// strconv.ParseFloat reads, out-of-range and special ones, and text that
// merely starts or ends like a number, such as speedtest's pad text.
var numInputs = []string{
	"", " ", "0", "1", "-1.5", "+.5", "5.", ".", "+", "-", " 2 ", "\t3\n", " 7", "7 ",
	"00123456xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", "some text of row 7", "12abc", "abc",
	"1e5", "1E5", "1e-3", "1e", "1e+", "1e5x", "1.2.3", "1e400", "-1e400", "1e-400",
	"0x1p-2", "0X1P-2", "0x1.8p1", "0x", "0x1", "0xg", "0x1e", "0b101", "0o17",
	"Inf", "-inf", "+Infinity", "infinity", "infinit", "infx", "nan", "NaN", "+nan", "-NaN", "∞",
	"1_000", "1__0", "_1", "1_", "0x_1p0", "0x1_0p0", "1e1_0",
}

// TestNumMatchesStrconv: Num and Truthy read every text as strconv does.
func TestNumMatchesStrconv(t *testing.T) {
	for _, s := range numInputs {
		checkNum(t, s)
	}
}

func FuzzNum(f *testing.F) {
	for _, s := range numInputs {
		f.Add(s)
	}
	f.Fuzz(checkNum)
}

// checkNum compares Num and Truthy of text s with the strconv reading they
// had before they skipped text ParseFloat refuses.
func checkNum(t *testing.T, s string) {
	want, _ := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if got := Text(s).Num(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Errorf("Num(%q) = %v, want %v", s, got, want)
	}
	f, err := strconv.ParseFloat(s, 64)
	if got, want := Text(s).Truthy(), err == nil && f != 0; got != want {
		t.Errorf("Truthy(%q) = %v, want %v", s, got, want)
	}
}
