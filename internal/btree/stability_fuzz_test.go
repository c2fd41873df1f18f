package btree

import (
	"bytes"
	"testing"
)

// stabilityKey is key j of group v: the group byte, j, and a tail whose
// length varies with both, so leaves hold keys of mixed sizes.
func stabilityKey(v, j byte) []byte {
	return append([]byte{v, j}, bytes.Repeat([]byte{v ^ j}, int(v+j)%10)...)
}

// FuzzKeyStability holds the key blocks to their no-rewrite rule: a key
// handed out by Iter.Key, ReadBatch or Diff keeps its bytes, and its cap ends
// at its length, whatever Put, Delete and Clone do afterwards to the handle it
// came from and to that handle's snapshots — splits, key-block moves and
// copy-on-write copies included, from a bulk-loaded start whose leaves point
// into one slab. The input is a stream of (op, group) byte pairs, at most 96
// bytes; a put or delete touches the sixteen keys of a group, so a few ops
// split leaves and move key blocks.
func FuzzKeyStability(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 3, 0, 2, 0, 0, 3, 4, 2, 1, 0, 5, 1, 0, 7, 3, 1})
	f.Add([]byte{2, 0, 0, 9, 0, 11, 0, 13, 4, 8, 1, 8, 5, 3, 0, 15, 3, 12})
	f.Add([]byte{4, 0, 2, 1, 1, 2, 0, 4, 5, 0, 5, 1, 2, 3, 0, 5, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			return
		}
		var start [][]byte
		for v := 0; v < 256; v += 2 {
			for j := byte(0); j < 4; j++ {
				start = append(start, stabilityKey(byte(v), j))
			}
		}
		trees := []*Tree[int]{BulkLoad[int](slabOf(start), nil, nil)}
		type handed struct{ key, want []byte }
		var out []handed
		hand := func(k []byte) {
			if cap(k) != len(k) {
				t.Fatalf("key %x handed out with cap %d > len %d", k, cap(k), len(k))
			}
			out = append(out, handed{k, bytes.Clone(k)})
		}
		for len(data) >= 2 {
			op, v := data[0], data[1]
			data = data[2:]
			tr := trees[int(v)%len(trees)]
			switch op % 6 {
			case 0:
				for j := byte(0); j < 16; j++ {
					tr.Put(stabilityKey(v, j), int(op))
				}
			case 1:
				for j := byte(0); j < 16; j++ {
					tr.Delete(stabilityKey(v, j))
				}
			case 2:
				trees = append(trees, tr.Clone())
			case 3:
				it := tr.Seek(stabilityKey(v, 0))
				for n := 0; n < 8 && it.Valid(); n++ {
					hand(it.Key())
					it.Next()
				}
			case 4:
				keys := make([][]byte, 8)
				n := tr.Seek(stabilityKey(v, 0)).ReadBatch(keys, make([]int, 8), 8)
				for _, k := range keys[:n] {
					hand(k)
				}
			case 5:
				n := 0
				Diff(tr, trees[int(v/2)%len(trees)], func(k []byte, _, _ int) bool {
					hand(k)
					n++
					return n < 8
				})
			}
			for _, h := range out {
				if !bytes.Equal(h.key, h.want) {
					t.Fatalf("handed-out key %x now reads %x", h.want, h.key)
				}
			}
		}
		for i, tr := range trees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("handle %d: %v", i, err)
			}
		}
	})
}
