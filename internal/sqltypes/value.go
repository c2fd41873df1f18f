// Package sqltypes defines the dynamically typed values that flow through
// the storage engine, executor and optimizer, together with total ordering
// and an order-preserving binary key encoding used by B+tree indexes.
//
// A Value is 24 bytes: a tagged string and one word. The string is empty
// for NULL; otherwise its first byte is the Kind, followed for STRING and
// BYTES by the payload. The word holds an INT or BOOL payload or a FLOAT's
// bits. A numeric value's tag is a one-byte constant, so building one
// allocates nothing; a string value is one allocation, tag and payload
// together.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// Supported value kinds. KindNull sorts before every other value, matching
// the behaviour of NULLS FIRST index ordering in MySQL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBytes
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBytes:
		return "BYTES"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	t string // "" for NULL, else the Kind byte, then a STRING/BYTES payload
	n int64  // INT or BOOL payload, or a FLOAT's math.Float64bits
}

// The tags of the kinds without a string payload: constants, so a numeric
// Value points at static data.
const (
	intTag   = string(rune(KindInt))
	floatTag = string(rune(KindFloat))
	boolTag  = string(rune(KindBool))
)

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{t: intTag, n: v} }

// NewFloat returns a floating point value.
func NewFloat(v float64) Value { return Value{t: floatTag, n: int64(math.Float64bits(v))} }

// NewString returns a string value.
func NewString(v string) Value { return tagged(KindString, v) }

// NewStringBytes returns a string value holding a copy of v: what
// NewString(string(v)) returns, in one allocation instead of two.
func NewStringBytes(v []byte) Value { return tagged(KindString, v) }

// NewStringUnquoted returns the string value of body, the text between a SQL
// string literal's quotes, in which every quote is doubled: tag and payload
// in one allocation, sharing no memory with body.
func NewStringUnquoted(body string) Value {
	b := make([]byte, 1, 1+len(body)-strings.Count(body, "'")/2)
	b[0] = byte(KindString)
	for j := strings.IndexByte(body, '\''); j >= 0; j = strings.IndexByte(body, '\'') {
		b = append(b, body[:j+1]...)
		body = body[j+2:]
	}
	return fromTagged(append(b, body...))
}

// NewBytes returns a binary string value.
func NewBytes(v []byte) Value { return tagged(KindBytes, v) }

// tagged builds a STRING or BYTES value: the kind byte and a copy of p in
// one allocation.
func tagged[T string | []byte](k Kind, p T) Value {
	b := make([]byte, 1+len(p))
	b[0] = byte(k)
	copy(b[1:], p)
	return fromTagged(b)
}

// fromTagged makes b, a kind byte and its payload, a Value's tagged string
// without copying it; b must not be written afterwards.
func fromTagged(b []byte) Value { return Value{t: unsafe.String(&b[0], len(b))} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{t: boolTag, n: 1}
	}
	return Value{t: boolTag}
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind {
	if v.t == "" {
		return KindNull
	}
	return Kind(v.t[0])
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.t == "" }

// Int returns the integer payload. It is only meaningful for KindInt and
// KindBool values; it is 0 for every other kind.
func (v Value) Int() int64 {
	if v.Kind() == KindFloat {
		return 0
	}
	return v.n
}

// Float returns the value as a float64, converting integers and booleans.
func (v Value) Float() float64 {
	switch v.Kind() {
	case KindFloat:
		return math.Float64frombits(uint64(v.n))
	case KindInt, KindBool:
		return float64(v.n)
	default:
		return 0
	}
}

// Str returns the string payload for KindString and KindBytes values, and
// "" for every other kind.
func (v Value) Str() string {
	if v.t == "" {
		return ""
	}
	return v.t[1:]
}

// Bool returns the value interpreted as a boolean.
func (v Value) Bool() bool {
	switch v.Kind() {
	case KindBool, KindInt:
		return v.n != 0
	case KindFloat:
		return v.Float() != 0
	case KindString, KindBytes:
		return len(v.t) > 1
	default:
		return false
	}
}

// IsNumeric reports whether v is an INT, FLOAT or BOOL value.
func (v Value) IsNumeric() bool {
	k := v.Kind()
	return k == KindInt || k == KindFloat || k == KindBool
}

// String renders the value for display and query normalization.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	case KindBytes:
		return fmt.Sprintf("x'%x'", v.Str())
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// Compare totally orders two values: NULL < numbers < strings/bytes.
// Numeric kinds compare by numeric value; INT/FLOAT cross-compare exactly;
// STRING and BYTES compare by payload alone. It returns -1, 0 or +1.
func Compare(a, b Value) int { return ComparePtr(&a, &b) }

// rank groups kinds into comparison families.
func rank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat, KindBool:
		return 1
	default:
		return 2
	}
}

// ComparePtr is Compare for hot loops: identical ordering, but operands are
// passed by pointer so tight per-row kernels avoid copying two Value structs
// per comparison. Neither operand is mutated.
func ComparePtr(a, b *Value) int {
	ak, bk := a.Kind(), b.Kind()
	ar, br := rank(ak), rank(bk)
	if ar != br {
		if ar < br {
			return -1
		}
		return 1
	}
	switch ar {
	case 0: // both NULL
		return 0
	case 1: // numeric: the sign as arithmetic, no branch on the values
		if ak == KindFloat || bk == KindFloat {
			af, bf := a.Float(), b.Float()
			return b2i(af > bf) - b2i(af < bf)
		}
		return b2i(a.n > b.n) - b2i(a.n < b.n)
	default: // string-ish
		return strings.Compare(a.t[1:], b.t[1:])
	}
}

// b2i is 1 for true and 0 for false, compiled to a flag move.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is a tuple of values.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Size returns an approximate in-memory footprint of the row in bytes,
// used for storage accounting.
func (r Row) Size() int {
	n := 0
	for _, v := range r {
		n += v.StorageSize()
	}
	return n
}

// StorageSize approximates the stored footprint of a single value in bytes.
func (v Value) StorageSize() int {
	switch v.Kind() {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	default:
		return 2 + len(v.Str())
	}
}

// Float64ToValue converts a float that may hold an integral value back to
// the narrowest numeric Value.
func Float64ToValue(f float64) Value {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return NewInt(int64(f))
	}
	return NewFloat(f)
}
