package sqltypes

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// maxFuzzSpec bounds the bytes a fuzz input contributes. FuzzSkipKey's
// prefix loop is quadratic in the key, and the fuzzer's minimizer re-runs the
// target once per candidate, about n² candidates for an n-byte input: one
// long input found new coverage and kept a worker minimizing past the whole
// fuzz budget at 0 execs/s. Past the bound the minimizer's first cuts keep the
// coverage and shrink the input at once.
const maxFuzzSpec = 96

// tupleOf reads a value tuple from up to maxFuzzSpec fuzz bytes: each value is
// a selector byte (NULL, int, float or string) followed by its payload, where
// a string is a length byte and up to 15 raw bytes, so 0x00 and 0xFF land
// inside payloads.
func tupleOf(spec []byte) []Value {
	spec = spec[:min(len(spec), maxFuzzSpec)]
	var vals []Value
	take := func(n int) []byte {
		n = min(n, len(spec))
		b := spec[:n]
		spec = spec[n:]
		return b
	}
	for len(spec) > 0 {
		sel := take(1)[0]
		var buf [8]byte
		switch sel % 4 {
		case 0:
			vals = append(vals, Null)
		case 1:
			copy(buf[:], take(8))
			vals = append(vals, NewInt(int64(binary.BigEndian.Uint64(buf[:]))>>11))
		case 2:
			copy(buf[:], take(8))
			vals = append(vals, NewFloat(math.Float64frombits(binary.BigEndian.Uint64(buf[:]))))
		default:
			n := 0
			if l := take(1); len(l) > 0 {
				n = int(l[0] % 16)
			}
			vals = append(vals, NewString(string(take(n))))
		}
	}
	return vals
}

// FuzzSkipKey asserts that skipping k encoded values leaves exactly the
// encoding of the rest — what DecodeKeyInto leaves too — that every strict
// prefix of an encoding is rejected, and that on arbitrary bytes SkipKey
// never panics and agrees with DecodeKeyInto on the error and the remainder.
func FuzzSkipKey(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 3, 4, 'a', 0x00, 0xFF, 'b'}, uint8(2), []byte{tagString, 0x00, 0x01})
	f.Add([]byte{3, 3, 0x00, 0x00, 0x01, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, uint8(1), []byte{tagString, 'x', 0x00})
	f.Add([]byte{3, 0, 3, 2, 0xFF, 0x00}, uint8(0), []byte{tagString, 0x00, 0x55, tagNull})
	f.Add([]byte{}, uint8(0), []byte{tagNum, 1, 2})
	f.Fuzz(func(t *testing.T, spec []byte, kk uint8, corrupt []byte) {
		vals := tupleOf(spec)
		enc := EncodeKey(nil, vals...)
		k := int(kk) % (len(vals) + 1)
		want := EncodeKey(nil, vals[k:]...)
		rest, err := SkipKey(enc, k)
		if err != nil || !bytes.Equal(rest, want) {
			t.Fatalf("SkipKey(%x, %d) = %x, %v; want %x", enc, k, rest, err, want)
		}
		decRest, err := DecodeKeyInto(make([]Value, k), enc, k)
		if err != nil || !bytes.Equal(decRest, rest) {
			t.Fatalf("DecodeKeyInto(%x, %d) left %x, %v; SkipKey left %x", enc, k, decRest, err, rest)
		}
		for cut := range enc {
			if _, err := SkipKey(enc[:cut], len(vals)); err == nil {
				t.Fatalf("SkipKey accepted the %d-byte prefix of %x as %d values", cut, enc, len(vals))
			}
		}
		corrupt = corrupt[:min(len(corrupt), maxFuzzSpec)]
		for n := 0; n <= 3; n++ {
			skipped, skipErr := SkipKey(corrupt, n)
			decoded, decErr := DecodeKeyInto(make([]Value, n), corrupt, n)
			if (skipErr == nil) != (decErr == nil) || !bytes.Equal(skipped, decoded) {
				t.Fatalf("on %x (n=%d) SkipKey = %x, %v but DecodeKeyInto = %x, %v", corrupt, n, skipped, skipErr, decoded, decErr)
			}
		}
	})
}

func TestSkipKeyAllocatesNothing(t *testing.T) {
	enc := EncodeKey(nil, NewString("a\x00b\xffc"), NewInt(7), Null, NewFloat(2.5), NewString("tail"))
	allocs := testing.AllocsPerRun(100, func() {
		if rest, err := SkipKey(enc, 4); err != nil || len(rest) == 0 {
			t.Fatal("SkipKey lost the last value")
		}
	})
	if allocs != 0 {
		t.Fatalf("SkipKey made %.1f allocations, want 0", allocs)
	}
}
