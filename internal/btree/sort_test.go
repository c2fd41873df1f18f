package btree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// slabOf packs keys back to back the way SlabItems expects them.
func slabOf(keys [][]byte) ([]byte, []int) {
	var slab []byte
	offs := []int{0}
	for _, k := range keys {
		slab = append(slab, k...)
		offs = append(offs, len(slab))
	}
	return slab, offs
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

// checkSlabItems asserts that SlabItems orders keys as slices.SortFunc with
// bytes.Compare does, hands every key out with cap == len, and pairs each
// key with the value of its input position.
func checkSlabItems(t *testing.T, keys [][]byte) {
	t.Helper()
	keys = uniqueKeys(keys)
	slab, offs := slabOf(keys)
	items := SlabItems(slab, offs, func(i int, key []byte) interface{} {
		if !bytes.Equal(key, keys[i]) {
			t.Fatalf("val called with key %q for input %d, want %q", key, i, keys[i])
		}
		return i
	})
	want := slices.Clone(keys)
	slices.SortFunc(want, bytes.Compare)
	if len(items) != len(want) {
		t.Fatalf("%d items, want %d", len(items), len(want))
	}
	for i, it := range items {
		if !bytes.Equal(it.Key, want[i]) {
			t.Fatalf("position %d: %x, want %x", i, it.Key, want[i])
		}
		if cap(it.Key) != len(it.Key) {
			t.Fatalf("position %d: cap %d > len %d", i, cap(it.Key), len(it.Key))
		}
		if !bytes.Equal(keys[it.Val.(int)], it.Key) {
			t.Fatalf("position %d: value %d names key %x", i, it.Val, keys[it.Val.(int)])
		}
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
