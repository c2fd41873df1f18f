package btree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// slabOf packs keys back to back into a Slab.
func slabOf(keys [][]byte) Slab {
	s := Slab{Offs: []int{0}}
	for _, k := range keys {
		s.Buf = append(s.Buf, k...)
		s.Offs = append(s.Offs, len(s.Buf))
	}
	return s
}

// uniqueKeys drops repeats, keeping first appearances in input order.
func uniqueKeys(keys [][]byte) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, k := range keys {
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, k)
		}
	}
	return out
}

// checkSlabItems asserts that Slab.Order orders a slab's keys as
// slices.SortFunc with bytes.Compare does (nil only for keys already in
// order), and that BulkLoad in that order hands every key out with cap == len
// and pairs it with the value of its input position.
func checkSlabItems(t *testing.T, keys [][]byte) {
	t.Helper()
	keys = uniqueKeys(keys)
	s := slabOf(keys)
	order := s.Order()
	want := slices.Clone(keys)
	slices.SortFunc(want, bytes.Compare)
	if order == nil && !slices.EqualFunc(keys, want, bytes.Equal) {
		t.Fatal("Order returned nil for keys out of order")
	}
	vals := make([]any, len(keys)) // entry j's value: its key's input position
	for j := range vals {
		vals[j] = j
		if order != nil {
			vals[j] = int(order[j])
		}
	}
	tr := BulkLoad(s, order, vals)
	if tr.Len() != len(want) {
		t.Fatalf("%d entries, want %d", tr.Len(), len(want))
	}
	i := 0
	for it := tr.Seek(nil); it.Valid(); it.Next() {
		k := it.Key()
		if !bytes.Equal(k, want[i]) {
			t.Fatalf("position %d: %x, want %x", i, k, want[i])
		}
		if cap(k) != len(k) {
			t.Fatalf("position %d: cap %d > len %d", i, cap(k), len(k))
		}
		if !bytes.Equal(keys[it.Value().(int)], k) {
			t.Fatalf("position %d: value %d names key %x", i, it.Value(), keys[it.Value().(int)])
		}
		i++
	}
}

func TestSlabItemsMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randomKeys := func(n, maxLen int) [][]byte {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = make([]byte, r.Intn(maxLen+1))
			r.Read(keys[i])
		}
		return keys
	}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 50000} {
		checkSlabItems(t, randomKeys(n, 24))
	}
	// Empty keys and keys that are strict prefixes of others: the exhausted
	// bucket must sort first at every depth, in radix and comparison passes.
	t.Run("prefixes", func(t *testing.T) {
		var keys [][]byte
		for _, k := range randomKeys(300, 6) {
			for l := 0; l <= len(k); l++ {
				keys = append(keys, k[:l])
			}
		}
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		checkSlabItems(t, keys)
	})
	// Runs longer than radixCutoff sharing a 20-byte prefix take the
	// single-bucket skip twenty times before they branch; the prefix itself
	// is among them, exhausted exactly where the skip ends.
	t.Run("shared_prefix", func(t *testing.T) {
		prefix := bytes.Repeat([]byte{0xab}, 20)
		var keys [][]byte
		for _, sfx := range randomKeys(5*radixCutoff, 4) {
			keys = append(keys, append(slices.Clone(prefix), sfx...))
		}
		keys = append(keys, prefix, prefix[:19], append(slices.Clone(prefix[:19]), 0xac))
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		checkSlabItems(t, keys)
	})
	// String payloads as the key encoding writes them: 0x00 escaped as
	// 0x00 0xFF, terminated by 0x00 0x01, with a pk tail behind.
	t.Run("escapes", func(t *testing.T) {
		var keys [][]byte
		for i := 0; i < 500; i++ {
			k := []byte{0x02}
			for j := r.Intn(4); j > 0; j-- {
				if r.Intn(2) == 0 {
					k = append(k, 0x00, 0xFF)
				} else {
					k = append(k, byte('a'+r.Intn(3)))
				}
			}
			keys = append(keys, append(k, 0x00, 0x01, 0x01, byte(i>>8), byte(i)))
		}
		checkSlabItems(t, keys)
	})
	t.Run("sorted", func(t *testing.T) {
		keys := uniqueKeys(randomKeys(2000, 12))
		slices.SortFunc(keys, bytes.Compare)
		checkSlabItems(t, keys)
	})
}
