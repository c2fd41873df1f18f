package sqltypes

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins the 24-byte tagged layout: a Value is a string and a
// word, the zero Value is NULL, numeric constructors allocate nothing, and
// == compares a FLOAT's bits, so -0.0 and 0.0 differ under == while Compare
// calls them equal, and NaN == NaN.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	if (Value{}) != Null || !(Value{}).IsNull() || (Value{}).Kind() != KindNull {
		t.Fatal("the zero Value is not NULL")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if NewInt(7).Int()+NewFloat(2.5).Int()+NewBool(true).Int() != 8 {
			t.Fatal("numeric payloads lost")
		}
	})
	if allocs != 0 {
		t.Fatalf("numeric constructors made %.1f allocations, want 0", allocs)
	}
	negZero := NewFloat(math.Copysign(0, -1))
	if negZero == NewFloat(0) || !Equal(negZero, NewFloat(0)) {
		t.Fatal("-0.0 and 0.0: want == false (bits differ) and Equal true")
	}
	if nan := NewFloat(math.NaN()); nan != nan {
		t.Fatal("NaN != NaN under ==; want the bits compared")
	}
}

// TestDecodeAllocatesOncePerString: DecodeKeyInto builds each decoded string
// column, escapes undone, as one allocation holding tag and payload; a
// numeric column allocates nothing.
func TestDecodeAllocatesOncePerString(t *testing.T) {
	in := []Value{NewString("a\x00b\x00\x00c"), NewInt(7), NewString("plain"), NewFloat(2.5)}
	enc := EncodeKey(nil, in...)
	dst := make([]Value, len(in))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeKeyInto(dst, enc, len(in)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("decoding two string columns made %.1f allocations, want 2", allocs)
	}
	for i := range in {
		if dst[i] != in[i] {
			t.Fatalf("column %d decoded as %v, want %v", i, dst[i], in[i])
		}
	}
}

// oracle is the Value this package stored before the tagged layout — a
// kind and one field per payload — with the operations written against
// those fields. FuzzValueSemantics holds the tagged Value to it.
type oracle struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

func (o oracle) float() float64 {
	switch o.kind {
	case KindFloat:
		return o.f
	case KindInt, KindBool:
		return float64(o.i)
	default:
		return 0
	}
}

func (o oracle) bool() bool {
	switch o.kind {
	case KindBool, KindInt:
		return o.i != 0
	case KindFloat:
		return o.f != 0
	case KindString, KindBytes:
		return o.s != ""
	default:
		return false
	}
}

func (o oracle) String() string {
	switch o.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(o.i, 10)
	case KindFloat:
		return strconv.FormatFloat(o.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(o.s, "'", "''") + "'"
	case KindBytes:
		return fmt.Sprintf("x'%x'", o.s)
	case KindBool:
		if o.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

func (o oracle) storageSize() int {
	switch o.kind {
	case KindNull, KindBool:
		return 1
	case KindInt, KindFloat:
		return 8
	default:
		return 2 + len(o.s)
	}
}

func (o oracle) encode() []byte {
	switch o.kind {
	case KindNull:
		return []byte{tagNull}
	case KindInt, KindFloat, KindBool:
		return encodeFloatOrdered([]byte{tagNum}, o.float())
	default:
		return encodeStringOrdered([]byte{tagString}, o.s)
	}
}

func (o oracle) compare(p oracle) int {
	rank := func(k Kind) int {
		switch k {
		case KindNull:
			return 0
		case KindInt, KindFloat, KindBool:
			return 1
		default:
			return 2
		}
	}
	or, pr := rank(o.kind), rank(p.kind)
	switch {
	case or != pr:
		return sign(or < pr, or > pr)
	case or == 0:
		return 0
	case or == 2:
		return strings.Compare(o.s, p.s)
	case o.kind == KindFloat || p.kind == KindFloat:
		return sign(o.float() < p.float(), o.float() > p.float())
	default:
		return sign(o.i < p.i, o.i > p.i)
	}
}

func sign(less, greater bool) int {
	switch {
	case less:
		return -1
	case greater:
		return 1
	default:
		return 0
	}
}

// buildPair makes the same value twice, through this package and as an
// oracle, by one of nine routes: each constructor, Float64ToValue, and a
// string through EncodeKey and DecodeKey.
func buildPair(t *testing.T, route uint8, i int64, f float64, s string) (Value, oracle) {
	switch route % 9 {
	case 0:
		return Null, oracle{}
	case 1:
		return NewInt(i), oracle{kind: KindInt, i: i}
	case 2:
		return NewFloat(f), oracle{kind: KindFloat, f: f}
	case 3:
		return NewString(s), oracle{kind: KindString, s: s}
	case 4:
		return NewBytes([]byte(s)), oracle{kind: KindBytes, s: s}
	case 5:
		return NewBool(i&1 == 1), oracle{kind: KindBool, i: i & 1}
	case 6:
		return NewStringBytes([]byte(s)), oracle{kind: KindString, s: s}
	case 7:
		if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return Float64ToValue(f), oracle{kind: KindInt, i: int64(f)}
		}
		return Float64ToValue(f), oracle{kind: KindFloat, f: f}
	default:
		out, rest, err := DecodeKey(EncodeKey(nil, NewString(s)), 1)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decoding %q: %v, %d bytes left", s, err, len(rest))
		}
		return out[0], oracle{kind: KindString, s: s}
	}
}

// checkAccessors holds one value's accessors and renderings to its oracle.
func checkAccessors(t *testing.T, v Value, o oracle) {
	t.Helper()
	numeric := o.kind == KindInt || o.kind == KindFloat || o.kind == KindBool
	if v.Kind() != o.kind || v.IsNull() != (o.kind == KindNull) || v.IsNumeric() != numeric {
		t.Fatalf("%v: kind %v null %v numeric %v; oracle %+v", v, v.Kind(), v.IsNull(), v.IsNumeric(), o)
	}
	if v.Int() != o.i || math.Float64bits(v.Float()) != math.Float64bits(o.float()) || v.Str() != o.s || v.Bool() != o.bool() {
		t.Fatalf("%v: Int %d Float %v Str %q Bool %v; oracle %+v", v, v.Int(), v.Float(), v.Str(), v.Bool(), o)
	}
	if v.String() != o.String() || v.StorageSize() != o.storageSize() {
		t.Fatalf("%v: String %q StorageSize %d; oracle %q %d", v, v.String(), v.StorageSize(), o.String(), o.storageSize())
	}
	if enc := EncodeKey(nil, v); !bytes.Equal(enc, o.encode()) || EncodedLen(v) != len(enc) {
		t.Fatalf("%v: EncodeKey %x (EncodedLen %d); oracle %x", v, enc, EncodedLen(v), o.encode())
	}
}

// FuzzValueSemantics holds the tagged Value to the oracle of the layout it
// replaced: every constructor and accessor round-trips, String,
// StorageSize, EncodedLen and EncodeKey are the oracle's, and Compare,
// ComparePtr and Equal order every pair as the oracle does, so key order
// agrees too. A STRING and a BYTES with the same payload compare equal.
func FuzzValueSemantics(f *testing.F) {
	for _, s := range []string{"", "\x00", "\x01", "\x02x", "\x03abc", "\x04", "\x05\x00\xff", "u17", "a'b"} {
		f.Add(uint8(3), int64(0), 0.0, s, uint8(4), int64(0), 0.0, s)
		f.Add(uint8(8), int64(0), 0.0, s, uint8(6), int64(0), 0.0, s+"\x00")
	}
	for _, x := range []float64{math.Copysign(0, -1), math.NaN(), 1 << 53, -(1 << 53), 1<<53 + 2, math.Inf(-1), 0.5} {
		f.Add(uint8(2), int64(0), x, "", uint8(7), int64(1<<53), x, "")
		f.Add(uint8(7), int64(0), x, "", uint8(1), int64(-1<<53), 0.0, "")
	}
	f.Add(uint8(5), int64(3), 0.0, "", uint8(0), int64(2), 1.0, "x")
	f.Fuzz(func(t *testing.T, ra uint8, ia int64, fa float64, sa string, rb uint8, ib int64, fb float64, sb string) {
		a, oa := buildPair(t, ra, ia, fa, sa)
		b, ob := buildPair(t, rb, ib, fb, sb)
		checkAccessors(t, a, oa)
		checkAccessors(t, b, ob)
		want := oa.compare(ob)
		if got := Compare(a, b); got != want || ComparePtr(&a, &b) != want || Equal(a, b) != (want == 0) {
			t.Fatalf("Compare(%v, %v) = %d (ptr %d, Equal %v); oracle %d", a, b, got, ComparePtr(&a, &b), Equal(a, b), want)
		}
		if r := (Row{a, b}); r.Size() != oa.storageSize()+ob.storageSize() {
			t.Fatalf("Row{%v, %v}.Size() = %d", a, b, r.Size())
		}
		str, bin := NewString(sa), NewBytes([]byte(sa))
		if Compare(str, bin) != 0 || Compare(bin, str) != 0 || !Equal(str, bin) {
			t.Fatalf("STRING and BYTES %q compare %d / %d", sa, Compare(str, bin), Compare(bin, str))
		}
	})
}
