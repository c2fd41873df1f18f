package sqltypes

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		null bool
	}{
		{Null, KindNull, true},
		{NewInt(42), KindInt, false},
		{NewFloat(3.5), KindFloat, false},
		{NewString("abc"), KindString, false},
		{NewBytes([]byte{1, 2}), KindBytes, false},
		{NewBool(true), KindBool, false},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.IsNull() != c.null {
			t.Errorf("%v: IsNull = %v, want %v", c.v, c.v.IsNull(), c.null)
		}
	}
	if got := NewInt(7).Int(); got != 7 {
		t.Errorf("Int() = %d, want 7", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %v, want 2.5", got)
	}
	if got := NewInt(7).Float(); got != 7 {
		t.Errorf("int Float() = %v, want 7", got)
	}
	if got := NewString("x").Str(); got != "x" {
		t.Errorf("Str() = %q, want x", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool round-trip failed")
	}
}

func TestCompareOrdering(t *testing.T) {
	// Ascending order across families: NULL < numerics < strings.
	asc := []Value{
		Null,
		NewFloat(-1e9),
		NewInt(-5),
		NewBool(false),
		NewFloat(0.5),
		NewBool(true),
		NewInt(2),
		NewFloat(2.5),
		NewInt(1000),
		NewString(""),
		NewString("a"),
		NewString("ab"),
		NewString("b"),
	}
	for i := range asc {
		for j := range asc {
			got := Compare(asc[i], asc[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", asc[i], asc[j], got, want)
			}
		}
	}
}

func TestCompareIntFloatCross(t *testing.T) {
	if Compare(NewInt(2), NewFloat(2.0)) != 0 {
		t.Error("2 != 2.0")
	}
	if Compare(NewInt(2), NewFloat(2.5)) != -1 {
		t.Error("2 should be < 2.5")
	}
	if Compare(NewFloat(2.5), NewInt(2)) != 1 {
		t.Error("2.5 should be > 2")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-3), "-3"},
		{NewString("a'b"), "'a''b'"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone shares backing array")
	}
}

func TestStorageSize(t *testing.T) {
	if Null.StorageSize() != 1 {
		t.Error("null size")
	}
	if NewInt(1).StorageSize() != 8 {
		t.Error("int size")
	}
	if NewString("abcd").StorageSize() != 6 {
		t.Error("string size")
	}
	r := Row{NewInt(1), NewString("ab")}
	if r.Size() != 12 {
		t.Errorf("row size = %d, want 12", r.Size())
	}
}

func TestFloat64ToValue(t *testing.T) {
	if v := Float64ToValue(4); v.Kind() != KindInt || v.Int() != 4 {
		t.Errorf("Float64ToValue(4) = %v", v)
	}
	if v := Float64ToValue(4.5); v.Kind() != KindFloat || v.Float() != 4.5 {
		t.Errorf("Float64ToValue(4.5) = %v", v)
	}
}

// randomValue generates values across kinds for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return NewInt(r.Int63n(2000) - 1000)
	case 2:
		return NewFloat((r.Float64() - 0.5) * 2000)
	case 3:
		n := r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return NewString(string(b))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

func TestKeyEncodingOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		n := 1 + rr.Intn(3)
		a := make([]Value, n)
		b := make([]Value, n)
		for i := 0; i < n; i++ {
			a[i] = randomValue(rr)
			b[i] = randomValue(rr)
		}
		ea := EncodeKey(nil, a...)
		eb := EncodeKey(nil, b...)
		cmp := 0
		for i := 0; i < n && cmp == 0; i++ {
			cmp = Compare(a[i], b[i])
		}
		bcmp := bytes.Compare(ea, eb)
		if cmp < 0 {
			return bcmp < 0
		}
		if cmp > 0 {
			return bcmp > 0
		}
		return bcmp == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingPrefixProperty(t *testing.T) {
	// An encoded prefix of a multi-column key must be a bytewise prefix of
	// the full key, so that prefix range scans work.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomValue(rr), randomValue(rr)
		full := EncodeKey(nil, a, b)
		prefix := EncodeKey(nil, a)
		return bytes.HasPrefix(full, prefix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestKeyDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(4)
		in := make([]Value, n)
		for i := range in {
			in[i] = randomValue(r)
		}
		enc := EncodeKey(nil, in...)
		out, rest, err := DecodeKey(enc, n)
		if err != nil {
			t.Fatalf("decode error: %v (in=%v)", err, in)
		}
		if len(rest) != 0 {
			t.Fatalf("decode left %d bytes", len(rest))
		}
		for i := range in {
			if Compare(in[i], out[i]) != 0 {
				t.Fatalf("value %d: got %v want %v", i, out[i], in[i])
			}
		}
	}
}

func TestEncodedLenMatchesEncodeKey(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := []Value{Null, NewString(""), NewString("\x00"), NewString("a\x00\x00b"), NewBytes([]byte{0, 1, 0})}
	for i := 0; i < 2000; i++ {
		vals = append(vals, randomValue(r))
	}
	for _, v := range vals {
		if got, want := EncodedLen(v), len(EncodeKey(nil, v)); got != want {
			t.Fatalf("EncodedLen(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestKeyDecodeErrors(t *testing.T) {
	if _, _, err := DecodeKey([]byte{}, 1); err == nil {
		t.Error("empty key should fail")
	}
	if _, _, err := DecodeKey([]byte{tagNum, 1, 2}, 1); err == nil {
		t.Error("short numeric should fail")
	}
	if _, _, err := DecodeKey([]byte{0x77}, 1); err == nil {
		t.Error("unknown tag should fail")
	}
	if _, _, err := DecodeKey([]byte{tagString, 'a'}, 1); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, _, err := DecodeKey([]byte{tagString, 0x00, 0x55}, 1); err == nil {
		t.Error("bad escape should fail")
	}
}

func TestEncodedKeysSortLikeValues(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vals := make([]Value, 200)
	for i := range vals {
		vals[i] = randomValue(r)
	}
	sortedByValue := append([]Value(nil), vals...)
	sort.Slice(sortedByValue, func(i, j int) bool {
		return Compare(sortedByValue[i], sortedByValue[j]) < 0
	})
	encs := make([][]byte, len(vals))
	for i, v := range vals {
		encs[i] = EncodeKey(nil, v)
	}
	sort.Slice(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 })
	for i := range encs {
		want := EncodeKey(nil, sortedByValue[i])
		if !bytes.Equal(encs[i], want) {
			t.Fatalf("position %d: encoded sort order diverges from value sort order", i)
		}
	}
}
