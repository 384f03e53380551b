// Package sqldb is the SQLite stand-in of the paper's CPU/memory-intensive
// evaluation (§6.4): an embedded SQL database engine with a pager (page
// cache plus rollback journal), B+tree tables and indexes, a SQL-subset
// front end and an executor. It performs all file I/O through the VFSCORE
// client of the cubicle it runs in, so every page miss, journal write and
// fsync crosses the VFSCORE and RAMFS cubicles exactly as in the paper's
// Figure 8 deployment.
package sqldb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Kind is a value's dynamic type.
type Kind uint8

// Value kinds (SQLite's storage classes).
const (
	KNull Kind = iota
	KInt
	KReal
	KText
)

// Value is one SQL value.
type Value struct {
	Kind Kind
	I    int64
	R    float64
	S    string
}

// valueSize, groupSize and aggStateSize are the bytes a Value, a group
// and an aggState take in a slice: what an arena of each holds is sized by
// them.
const (
	valueSize    = int(unsafe.Sizeof(Value{}))
	groupSize    = int(unsafe.Sizeof(group{}))
	aggStateSize = int(unsafe.Sizeof(aggState{}))
)

// Convenience constructors.
func Null() Value          { return Value{Kind: KNull} }
func Int(i int64) Value    { return Value{Kind: KInt, I: i} }
func Real(r float64) Value { return Value{Kind: KReal, R: r} }
func Text(s string) Value  { return Value{Kind: KText, S: s} }
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KNull }

// Truthy applies SQL boolean semantics (NULL is false).
func (v Value) Truthy() bool {
	switch v.Kind {
	case KInt:
		return v.I != 0
	case KReal:
		return v.R != 0
	case KText:
		f, err := parseNum(v.S)
		return err == nil && f != 0
	}
	return false
}

// Num returns the value coerced to a float64 for arithmetic.
func (v Value) Num() float64 {
	switch v.Kind {
	case KInt:
		return float64(v.I)
	case KReal:
		return v.R
	case KText:
		f, _ := parseNum(strings.TrimSpace(v.S))
		return f
	}
	return 0
}

// parseNum is strconv.ParseFloat(s, 64) on text that may be a number: one
// made only of the characters of a decimal or hexadecimal number, or a
// name for an infinity or NaN. On other text, such as speedtest's, it
// fails without calling ParseFloat, which would build an error and a copy
// of s.
func parseNum(s string) (float64, error) {
	t, chars := strings.TrimLeft(s, "+-"), "0123456789._eE+-"
	if len(t) > 2 && t[0] == '0' && t[1]|0x20 == 'x' {
		t, chars = t[2:], "0123456789abcdefABCDEF._pP+-"
	}
	if t == "" || strings.Trim(t, chars) != "" && !strings.EqualFold(t, "inf") && !strings.EqualFold(t, "infinity") && !strings.EqualFold(t, "nan") {
		return 0, strconv.ErrSyntax
	}
	return strconv.ParseFloat(s, 64)
}

func (v Value) String() string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KReal:
		return strconv.FormatFloat(v.R, 'g', -1, 64)
	case KText:
		return v.S
	}
	return "?"
}

// typeRank orders storage classes for comparison, as SQLite does:
// NULL < numbers < text.
func typeRank(k Kind) int {
	switch k {
	case KNull:
		return 0
	case KInt, KReal:
		return 1
	}
	return 2
}

// Compare orders two values with SQLite semantics. NULLs sort first.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.Kind), typeRank(b.Kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 2:
		return strings.Compare(a.S, b.S)
	}
	// Exact: float64 merges integers past 2^53.
	switch {
	case a.Kind == KInt && b.Kind == KInt:
		return cmp.Compare(a.I, b.I)
	case a.Kind == KInt:
		return cmpIntReal(a.I, b.R)
	case b.Kind == KInt:
		return -cmpIntReal(b.I, a.R)
	}
	switch {
	case a.R < b.R:
		return -1
	case a.R > b.R:
		return 1
	}
	return 0
}

// cmpIntReal orders an integer against a real without rounding the
// integer, so that Compare stays transitive across the two kinds. A NaN
// equals everything, as it does between two reals.
func cmpIntReal(i int64, r float64) int {
	switch {
	case r != r:
		return 0
	case r >= 1<<63:
		return -1
	case r < -(1 << 63):
		return 1
	}
	t := math.Trunc(r) // in int64's range, so int64(t) is exact
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c // |r - t| < 1: the integers on either side of t are on that side of r
	}
	return cmp.Compare(t, r)
}

// --- Record serialisation ---------------------------------------------------

// EncodeRecord serialises a row of values.
func EncodeRecord(vals []Value) []byte {
	return appendRecord(make([]byte, 0, 16*len(vals)+2), vals)
}

// appendRecord appends the serialised row to dst.
func appendRecord(dst []byte, vals []Value) []byte {
	dst = le.AppendUint16(dst, uint16(len(vals)))
	for _, v := range vals {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KInt:
			dst = le.AppendUint64(dst, uint64(v.I))
		case KReal:
			dst = le.AppendUint64(dst, math.Float64bits(v.R))
		case KText:
			dst = le.AppendUint32(dst, uint32(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst
}

// DecodeRecord parses a serialised row into values of their own.
func DecodeRecord(b []byte) ([]Value, error) {
	vals, err := decodeRecord(nil, b)
	for i, v := range vals {
		vals[i] = kept(v)
	}
	return vals, err
}

// decodeRecord parses a serialised row into dst[:0] without copying
// anything out of it: a text is a view of b, valid while b's bytes stay as
// they are.
func decodeRecord(dst []Value, b []byte) ([]Value, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("sqldb: record too short")
	}
	n, off := int(le.Uint16(b)), 2
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n; i++ {
		if len(b) <= off {
			return nil, fmt.Errorf("sqldb: truncated record")
		}
		k := Kind(b[off])
		off++
		switch k {
		case KNull:
			dst = append(dst, Value{})
		case KInt, KReal:
			if len(b) < off+8 {
				return nil, fmt.Errorf("sqldb: truncated number")
			}
			bits := le.Uint64(b[off:])
			if k == KInt {
				dst = append(dst, Value{Kind: KInt, I: int64(bits)})
			} else {
				dst = append(dst, Value{Kind: KReal, R: math.Float64frombits(bits)})
			}
			off += 8
		case KText:
			if len(b) < off+4 {
				return nil, fmt.Errorf("sqldb: truncated length")
			}
			l := int(le.Uint32(b[off:]))
			off += 4
			if len(b)-off < l {
				return nil, fmt.Errorf("sqldb: truncated payload")
			}
			dst = append(dst, Text(view(b[off:off+l])))
			off += l
		default:
			return nil, fmt.Errorf("sqldb: bad value kind %d", k)
		}
	}
	return dst, nil
}

// view returns b as a string without copying it, so the string changes
// when b does. It is the one place the package makes such a string:
// decodeRecord calls it on a record, keepText on a frame's text arena and
// aggState.add on a min or max state's bytes, and whoever keeps such a
// text past the life of its bytes copies it (DESIGN.md §16).
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// kept returns v sharing no memory with anything: a text, which may be a
// view of a record, is copied.
func kept(v Value) Value {
	if v.Kind == KText {
		v.S = strings.Clone(v.S)
	}
	return v
}

// --- Order-preserving index key encoding -------------------------------------

// appendKey appends one value of a key tuple to dst.
func appendKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KNull:
		return append(dst, 0x00)
	case KInt, KReal:
		bits := math.Float64bits(v.Num())
		// Flip for total order: positive floats get the sign bit set,
		// negatives are fully inverted.
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(append(dst, 0x01), bits)
	case KText:
		dst = append(dst, 0x02)
		// 0x00 bytes are escaped as 0x00 0xFF; terminator 0x00 0x00.
		for i := 0; i < len(v.S); i++ {
			c := v.S[i]
			dst = append(dst, c)
			if c == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		return append(dst, 0x00, 0x00)
	}
	return dst
}
