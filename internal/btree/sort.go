package btree

import (
	"bytes"
	"slices"
)

// SlabItems returns the keys held back to back in slab as Items in bytewise
// key order, ready for BulkLoad or AppendBulk: key i is slab[offs[i]:offs[i+1]]
// (offs has one entry more than there are keys) and its value is val(i, key).
// Sorting is pointer-free until the Items are emitted — an MSD radix sort over
// the key bytes permutes int32 key numbers, never the keys, so a GC mark
// running beside it has nothing to scan or barrier — and skipped for keys
// already in order (a primary-key-prefix index). Each key is a sub-slice of
// slab with cap == len, so appending to one never writes into the next; the
// slab stays reachable while any key or value cut from it is in any tree.
// Keys must be unique, as BulkLoad requires.
func SlabItems[V any](slab []byte, offs []int, val func(i int, key []byte) V) []Item[V] {
	perm := make([]int32, len(offs)-1)
	sorted := true
	for i := range perm {
		perm[i] = int32(i)
		if sorted && i > 0 && bytes.Compare(slab[offs[i-1]:offs[i]], slab[offs[i]:offs[i+1]]) >= 0 {
			sorted = false
		}
	}
	if !sorted {
		sortSlab(slab, offs, perm, make([]int32, len(perm)), 0)
	}
	items := make([]Item[V], len(perm))
	for i, k := range perm {
		key := slab[offs[k]:offs[k+1]:offs[k+1]]
		items[i] = Item[V]{Key: key, Val: val(int(k), key)}
	}
	return items
}

// radixCutoff is the bucket size below which comparison sort beats another
// counting pass.
const radixCutoff = 64

// sortSlab orders perm by the slab keys it numbers. Every key in perm agrees
// with the others on its first depth bytes.
func sortSlab(slab []byte, offs []int, perm, aux []int32, depth int) {
	for len(perm) > radixCutoff {
		// Bucket 0 holds keys exhausted at this depth (shorter keys sort
		// first, matching bytes.Compare); byte b lands in b+1.
		var counts [257]int
		for _, k := range perm {
			counts[slabBucket(slab, offs, k, depth)]++
		}
		if counts[0] == len(perm) {
			return // every key ends here, so they are all equal
		}
		var offsets [257]int
		sum, largest := 0, 1
		for b, c := range counts {
			offsets[b] = sum
			sum += c
			if b > 0 && c > counts[largest] {
				largest = b
			}
		}
		// A depth where every key has the same byte costs this counting pass
		// and no move.
		if counts[largest] < len(perm) {
			pos := offsets
			for _, k := range perm {
				b := slabBucket(slab, offs, k, depth)
				aux[pos[b]] = k
				pos[b]++
			}
			copy(perm, aux[:len(perm)])
			// Recurse into every byte bucket except the largest, which the
			// enclosing loop takes: the stack is bounded by the number of
			// distinct branching prefixes, not by the key length.
			for b := 1; b <= 256; b++ {
				if b != largest && counts[b] > 1 {
					sortSlab(slab, offs, perm[offsets[b]:offsets[b]+counts[b]], aux, depth+1)
				}
			}
		}
		perm = perm[offsets[largest] : offsets[largest]+counts[largest]]
		depth++
	}
	slices.SortFunc(perm, func(a, b int32) int {
		return bytes.Compare(slab[offs[a]+depth:offs[a+1]], slab[offs[b]+depth:offs[b+1]])
	})
}

// slabBucket maps the byte at depth of key k to a counting bucket: 0 when the
// key is exhausted, 1+b otherwise.
func slabBucket(slab []byte, offs []int, k int32, depth int) int {
	if p := offs[k] + depth; p < offs[k+1] {
		return int(slab[p]) + 1
	}
	return 0
}
