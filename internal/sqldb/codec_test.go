package sqldb

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// genValue produces an arbitrary Value from fuzz bytes.
func genValue(rng *rand.Rand) Value {
	switch rng.Intn(4) {
	case 0:
		return Null()
	case 1:
		return Int(rng.Int63() - rng.Int63())
	case 2:
		return Real(math.Float64frombits(rng.Uint64() &^ (0x7FF << 52))) // avoid NaN/Inf
	default:
		n := rng.Intn(40)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(128))
		}
		return Text(string(b))
	}
}

// TestRecordRoundTrip: encode/decode is the identity on arbitrary rows.
func TestRecordRoundTrip(t *testing.T) {
	f := func(seed int64, ncols uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(ncols % 12)
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = genValue(rng)
		}
		got, err := DecodeRecord(EncodeRecord(vals))
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range vals {
			if Compare(vals[i], got[i]) != 0 || vals[i].Kind != got[i].Kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRecordRejectsGarbage: random bytes either decode cleanly or
// error — never panic.
func TestDecodeRecordRejectsGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = DecodeRecord(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEncodeKeyOrderPreserving: the index key encoding's lexicographic
// order must match Compare order on single values.
func TestEncodeKeyOrderPreserving(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := genValue(rand.New(rand.NewSource(seedA)))
		b := genValue(rand.New(rand.NewSource(seedB)))
		cmpV := Compare(a, b)
		cmpK := bytes.Compare(EncodeKey([]Value{a}), EncodeKey([]Value{b}))
		if cmpV == 0 {
			// Int/Real of equal numeric value may encode identically;
			// equal Compare must never produce inverted keys.
			return true
		}
		return (cmpV < 0) == (cmpK < 0) && cmpK != 0 || (cmpV < 0) == (cmpK <= 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestEncodeKeyTupleOrder: tuple ordering is component-wise.
func TestEncodeKeyTupleOrder(t *testing.T) {
	low := EncodeKey([]Value{Int(5), Text("a")})
	high := EncodeKey([]Value{Int(5), Text("b")})
	if bytes.Compare(low, high) >= 0 {
		t.Error("tuple second component does not order")
	}
	lower := EncodeKey([]Value{Int(4), Text("zzz")})
	if bytes.Compare(lower, low) >= 0 {
		t.Error("tuple first component does not dominate")
	}
}

// TestEncodeKeyTextWithNULs: embedded zero bytes must not break ordering
// (the escape scheme).
func TestEncodeKeyTextWithNULs(t *testing.T) {
	a := EncodeKey([]Value{Text("a")})
	b := EncodeKey([]Value{Text("a\x00")})
	c := EncodeKey([]Value{Text("a\x00b")})
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Error("NUL-embedded strings out of order")
	}
}

func TestCompareSemantics(t *testing.T) {
	// SQLite storage-class ordering: NULL < numbers < text.
	order := []Value{Null(), Int(-5), Real(3.5), Int(10), Text("abc")}
	for i := 0; i < len(order)-1; i++ {
		if Compare(order[i], order[i+1]) >= 0 {
			t.Errorf("order[%d] (%v) not < order[%d] (%v)", i, order[i], i+1, order[i+1])
		}
	}
	// Int/Real compare numerically.
	if Compare(Int(2), Real(2.0)) != 0 {
		t.Error("2 != 2.0")
	}
	if Compare(Real(1.5), Int(2)) != -1 {
		t.Error("1.5 !< 2")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"abc", "abc", true},
		{"abc", "ABC", true}, // case-insensitive
		{"a%", "abcdef", true},
		{"%def", "abcdef", true},
		{"%cd%", "abcdef", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"%", "", true},
		{"_", "", false},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "acb", false},
		{"", "", true},
		{"", "x", false},
		{"%a%a%a%a%a%a%a%b", strings.Repeat("a", 30), false},
		{"%a%a%a%a%a%a%a%b", strings.Repeat("a", 30) + "b", true},
		{"%%a", "ba", true},
		// Only ASCII letters fold, as in SQLite without ICU; _ is one byte.
		{"É", "é", false},
		{"é", "é", true},
		{"_", "é", false},
		{"__", "é", true},
	}
	for _, c := range cases {
		if got, _ := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.pat, c.s, got)
		}
	}
}

// TestLikeStepsBounded: patterns that made the recursive matcher this one
// replaced backtrack exponentially — one 30-byte value took 94 ms, and each
// % more multiplied that — take at most (len(s)+1)·(len(pat)+1) steps.
func TestLikeStepsBounded(t *testing.T) {
	s := strings.Repeat("a", 4096)
	for _, pat := range []string{
		"%a%a%a%a%a%a%a%b",
		strings.Repeat("%a", 40) + "%b",
		strings.Repeat("%_", 64) + "b",
		"%" + strings.Repeat("a", 100) + "b%",
	} {
		match, steps := likeMatch(pat, s)
		if bound := (len(s) + 1) * (len(pat) + 1); match || steps > bound {
			t.Errorf("likeMatch(%.20q…, 4 KiB of a) = %v in %d steps, want false in at most %d", pat, match, steps, bound)
		}
	}
}

// FuzzLike compares likeMatch, on ASCII, with the regular expression the
// pattern stands for, and bounds its steps.
func FuzzLike(f *testing.F) {
	for _, seed := range [][2]string{
		{"a%b", "axxb"}, {"%a%a%b", "aaaa"}, {"_B_", "abc"}, {"%%", ""},
		{"a.c", "abc"}, {"%\n_", "x\ny"}, {"[a]%", "[A]"}, {"%a%", "AbA"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pat, s string) {
		if !isASCII(pat) || !isASCII(s) {
			t.Skip()
		}
		re := "(?is)^"
		for i := range len(pat) {
			switch pat[i] {
			case '%':
				re += ".*"
			case '_':
				re += "."
			default:
				re += regexp.QuoteMeta(pat[i : i+1])
			}
		}
		want := regexp.MustCompile(re + "$").MatchString(s)
		got, steps := likeMatch(pat, s)
		if bound := (len(s) + 1) * (len(pat) + 1); got != want || steps > bound {
			t.Errorf("likeMatch(%q, %q) = %v in %d steps, want %v in at most %d", pat, s, got, steps, want, bound)
		}
	})
}

func isASCII(s string) bool {
	for i := range len(s) {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// TestValueHelpers covers the scalar coercions.
func TestValueHelpers(t *testing.T) {
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull wrong")
	}
	if Int(0).Truthy() || !Int(2).Truthy() || !Real(0.5).Truthy() || Text("0").Truthy() || !Text("3").Truthy() {
		t.Error("Truthy wrong")
	}
	if Text("2.5").Num() != 2.5 || Int(7).Num() != 7 {
		t.Error("Num wrong")
	}
	if Bool(true).I != 1 || Bool(false).I != 0 {
		t.Error("Bool wrong")
	}
	if Int(42).String() != "42" || Text("x").String() != "x" || Null().String() != "NULL" {
		t.Error("String wrong")
	}
}
