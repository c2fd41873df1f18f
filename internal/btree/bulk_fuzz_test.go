package btree

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzBulkLoadEquivalence asserts that for any set of keys, Slab.Order sorts
// them and BulkLoad in that order produces a tree that is entry-for-entry and
// invariant-identical (via Validate) to one grown by incremental Put — and
// that AppendBulk over a sorted suffix agrees with both.
//
// The fuzz input (at most 96 bytes: the body is quadratic in it, and the
// minimizer reruns it ~n² times) is a first byte g and a stream of
// length-prefixed keys: byte n (1-17 bytes of key material) followed by that
// many bytes. g from 0xf8 up asks for (g-0xf7)*500 generated 8-byte keys
// ahead of the stream, enough for multi-level trees.
func FuzzBulkLoadEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 'a', 1, 'b', 1, 'a'})
	f.Add([]byte{0, 3, 'a', 'b', 'c', 2, 'a', 'b', 1, 'z', 4, 0, 0, 0, 0})
	f.Add([]byte{0xff, 2, 0, 0, 8, 0, 0, 0, 0, 0x9e, 0x37, 0x79, 0xb1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 96 {
			return
		}
		// Keys go into the slab in first-appearance order, the way an index
		// build hands over entries in clustered order; later values win, like
		// repeated Put.
		var keys [][]byte
		uniq := map[string]int{}
		gen := 0
		if data[0] >= 0xf8 {
			gen = int(data[0]-0xf7) * 500
		}
		for i := 0; i < gen; i++ {
			k := binary.BigEndian.AppendUint64(nil, uint64(i*2654435761))
			if _, seen := uniq[string(k)]; !seen {
				keys = append(keys, k)
			}
			uniq[string(k)] = i
		}
		data = data[1:]
		for i := gen; len(data) > 0; i++ {
			n := int(data[0])%17 + 1
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			if n == 0 {
				break
			}
			if _, seen := uniq[string(data[:n])]; !seen {
				keys = append(keys, data[:n])
			}
			uniq[string(data[:n])] = i
			data = data[n:]
		}
		s := slabOf(keys)
		order := s.Order()
		sorted := make([]string, 0, len(uniq))
		for k := range uniq {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)

		inc := New[any]()
		vals := make([]any, len(sorted))
		for i, k := range sorted {
			vals[i] = uniq[k]
			j := i
			if order != nil {
				j = int(order[i])
			}
			if string(s.Key(j)) != k {
				t.Fatalf("Order position %d: %x, want %x", i, s.Key(j), k)
			}
			inc.Put([]byte(k), uniq[k])
		}
		bulk := BulkLoad(s, order, vals)

		// The first half goes in by Put, the rest as a slab of its own.
		appended := New[any]()
		split := len(sorted) / 2
		for _, k := range sorted[:split] {
			appended.Put([]byte(k), uniq[k])
		}
		var rest [][]byte
		var restVals []any
		for _, k := range sorted[split:] {
			rest, restVals = append(rest, []byte(k)), append(restVals, uniq[k])
		}
		if !appended.AppendBulk(slabOf(rest), nil, restVals) {
			t.Fatal("AppendBulk rejected a sorted suffix beyond the current max")
		}

		for _, pair := range []struct {
			name string
			tr   *Tree[any]
		}{{"bulk", bulk}, {"appended", appended}} {
			if err := pair.tr.Validate(); err != nil {
				t.Fatalf("%s: %v", pair.name, err)
			}
			if pair.tr.Len() != inc.Len() {
				t.Fatalf("%s: Len = %d, want %d", pair.name, pair.tr.Len(), inc.Len())
			}
			it, iw := pair.tr.Seek(nil), inc.Seek(nil)
			for iw.Valid() {
				if !it.Valid() || !bytes.Equal(it.Key(), iw.Key()) || it.Value() != iw.Value() {
					t.Fatalf("%s: entry mismatch", pair.name)
				}
				it.Next()
				iw.Next()
			}
			if it.Valid() {
				t.Fatalf("%s: extra entries", pair.name)
			}
		}
		if err := inc.Validate(); err != nil {
			t.Fatalf("incremental: %v", err)
		}
	})
}
