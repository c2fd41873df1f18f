package btree

import (
	"bytes"
	"slices"
)

// Slab holds keys back to back in one buffer for BulkLoad and AppendBulk:
// key i is Buf[Offs[i]:Offs[i+1]], so Offs has one entry more than there are
// keys. A tree built from a slab whose keys are in order points its leaves
// into Buf instead of copying the keys, so the slab stays reachable while any
// leaf pointing into it is in any tree, and its bytes must not change once
// handed over.
type Slab struct {
	Buf  []byte
	Offs []int
}

// Len returns the number of keys.
func (s Slab) Len() int { return max(len(s.Offs)-1, 0) }

// Key returns key i, capped at its end.
func (s Slab) Key(i int) []byte { return s.Buf[s.Offs[i]:s.Offs[i+1]:s.Offs[i+1]] }

// Order returns the key numbers of s in bytewise key order, or nil when the
// keys already are in order (a primary-key-prefix index). Sorting is
// pointer-free — an MSD radix sort over the key bytes permutes int32 key
// numbers, never the keys, so a GC mark running beside it has nothing to scan
// or barrier. Keys must be unique, as BulkLoad requires.
func (s Slab) Order() []int32 {
	n := s.Len()
	for i := 1; i < n; i++ {
		if bytes.Compare(s.Key(i-1), s.Key(i)) >= 0 {
			perm := make([]int32, n)
			for k := range perm {
				perm[k] = int32(k)
			}
			sortSlab(s.Buf, s.Offs, perm, make([]int32, n), 0)
			return perm
		}
	}
	return nil
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
