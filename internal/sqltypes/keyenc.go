package sqltypes

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Key encoding produces a binary string whose bytewise (memcmp) order equals
// the Compare order of the encoded values. It is used as the B+tree key for
// both clustered tables and secondary indexes, so that multi-column range
// scans reduce to contiguous byte ranges.
//
// Layout per value: a 1-byte tag followed by a kind-specific payload.
//
//	0x00           NULL (no payload)
//	0x01           numeric: 8-byte order-preserving encoding of float64
//	0x02           string/bytes: escaped payload terminated by 0x00 0x01
//
// All numeric kinds (INT, FLOAT, BOOL) share the numeric tag so that mixed
// comparisons order identically to Compare. Integers up to 2^53 round-trip
// exactly through float64; larger magnitudes lose low bits in the encoded
// ordering, which matches compareNumeric's float path and is acceptable for
// the synthetic datasets used here.

const (
	tagNull   byte = 0x00
	tagNum    byte = 0x01
	tagString byte = 0x02
)

// EncodeKey appends the order-preserving encoding of vals to dst.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = encodeOne(dst, v)
	}
	return dst
}

// EncodedLen is len(EncodeKey(nil, v)), computed without encoding.
func EncodedLen(v Value) int {
	switch v.Kind() {
	case KindNull:
		return 1
	case KindInt, KindFloat, KindBool:
		return 9
	default:
		return 3 + len(v.Str()) + strings.Count(v.Str(), "\x00")
	}
}

func encodeOne(dst []byte, v Value) []byte {
	switch v.Kind() {
	case KindNull:
		return append(dst, tagNull)
	case KindInt, KindFloat, KindBool:
		dst = append(dst, tagNum)
		return encodeFloatOrdered(dst, v.Float())
	default:
		dst = append(dst, tagString)
		return encodeStringOrdered(dst, v.Str())
	}
}

// encodeFloatOrdered encodes f such that bytewise order equals numeric order.
func encodeFloatOrdered(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip all bits
	} else {
		bits |= 1 << 63 // non-negative: flip the sign bit
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return append(dst, buf[:]...)
}

// encodeStringOrdered escapes 0x00 bytes as 0x00 0xFF and terminates the
// payload with 0x00 0x01, preserving prefix ordering.
func encodeStringOrdered(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// DecodeKey decodes n values previously written by EncodeKey. It returns the
// decoded values and the remaining bytes. String and bytes values both decode
// as KindString; integral floats decode as KindInt (consistent with
// Float64ToValue), which is sufficient for index-only (covering) reads of the
// synthetic data in this repository.
func DecodeKey(src []byte, n int) ([]Value, []byte, error) {
	out := make([]Value, n)
	rest, err := DecodeKeyInto(out, src, n)
	if err != nil {
		return nil, nil, err
	}
	return out, rest, nil
}

// DecodeKeyInto decodes n values into dst (which must have len >= n) and
// returns the remaining bytes. It is the allocation-free core of DecodeKey:
// batch decoders reuse one dst slice across many keys instead of allocating a
// result slice per entry.
func DecodeKeyInto(dst []Value, src []byte, n int) ([]byte, error) {
	return walkKey(dst[:n], src, n)
}

// SkipKey returns what follows the first n values encoded in src without
// decoding them, so it allocates nothing. Skipping an index entry's index
// columns leaves its clustered key.
func SkipKey(src []byte, n int) ([]byte, error) {
	return walkKey(nil, src, n)
}

// walkKey is the one parser of the key encoding: it steps over n values,
// storing each in dst when dst is non-nil, and returns the bytes after them.
func walkKey(dst []Value, src []byte, n int) ([]byte, error) {
	for i := 0; i < n; i++ {
		if len(src) == 0 {
			return nil, fmt.Errorf("sqltypes: truncated key, want %d values got %d", n, i)
		}
		tag := src[0]
		src = src[1:]
		v := Null
		switch tag {
		case tagNull:
		case tagNum:
			if len(src) < 8 {
				return nil, fmt.Errorf("sqltypes: truncated numeric payload")
			}
			bits := binary.BigEndian.Uint64(src[:8])
			src = src[8:]
			if bits&(1<<63) != 0 {
				bits &^= 1 << 63
			} else {
				bits = ^bits
			}
			v = Float64ToValue(math.Float64frombits(bits))
		case tagString:
			// Only a 0x00 0xFF escape or the 0x00 0x01 terminator holds 0x00.
			payload, escapes := src, 0
			for {
				j := bytes.IndexByte(src, 0x00)
				if j < 0 || j+1 >= len(src) {
					return nil, fmt.Errorf("sqltypes: truncated string payload")
				}
				next := src[j+1]
				if src = src[j+2:]; next == 0x01 {
					break
				}
				if next != 0xFF {
					return nil, fmt.Errorf("sqltypes: bad string escape 0x00 0x%02x", next)
				}
				escapes++
			}
			if dst != nil { // decode; a skip copies nothing
				v = unescape(payload[:len(payload)-len(src)-2], escapes)
			}
		default:
			return nil, fmt.Errorf("sqltypes: unknown key tag 0x%02x", tag)
		}
		if dst != nil {
			dst[i] = v
		}
	}
	return src, nil
}

// unescape decodes a string payload holding the given number of 0x00 0xFF
// escapes into a STRING value, tag and payload in one allocation.
func unescape(p []byte, escapes int) Value {
	b := make([]byte, 1, 1+len(p)-escapes)
	b[0] = byte(KindString)
	for j := bytes.IndexByte(p, 0x00); j >= 0; j = bytes.IndexByte(p, 0x00) {
		b = append(b, p[:j+1]...)
		p = p[j+2:]
	}
	return fromTagged(append(b, p...))
}
