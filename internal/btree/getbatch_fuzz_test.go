package btree

import (
	"encoding/binary"
	"maps"
	"slices"
	"testing"
)

// getBatchKey is key i of FuzzGetBatch's key space, from three families that
// stress the leaf search: keys sharing their first eight bytes (every head
// ties), INT-shaped keys (a tag byte and eight bytes: the head decides all
// but the last byte) and keys shorter than a head, some a prefix of another.
func getBatchKey(i int) []byte {
	switch i % 3 {
	case 0:
		return binary.AppendUvarint([]byte("samehead"), uint64(i*7919%100003))
	case 1:
		return binary.BigEndian.AppendUint64([]byte{0x02}, uint64(i)*2654435761)
	default:
		return binary.BigEndian.AppendUint32(nil, uint32(i*40503))[:1+i%4]
	}
}

// FuzzGetBatch holds Tree.GetBatch to Get and to a map of what was stored:
// per key the same value, and the same index of the first absent key, on a
// tree of several levels, on a snapshot of it, and on the live tree after
// writes the snapshot must not see.
//
// The input (at most 96 bytes) is a size byte (1500 to 6000 generated keys,
// every fifth left out so absent keys fall inside runs of equal heads), a
// write count, then two bytes per write and two per queried key. A query's
// high bit asks for "samehead" and one byte: a tie run's member or a key
// between its members.
func FuzzGetBatch(f *testing.F) {
	f.Add([]byte{0, 2, 0, 3, 0, 9, 0, 1, 0, 2, 0x80, 0x41, 0, 3, 0, 6, 0x80, 0x00})
	f.Add([]byte{3, 0, 1, 4, 0x81, 0x7f, 0, 0, 0x12, 0x34, 0, 5, 0, 8})
	f.Add([]byte{1, 5, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 96 {
			return
		}
		gen := (int(data[0])%4 + 1) * 1500
		space := gen + gen/4 // indexes past gen are never stored
		live := New[int]()
		model := map[string]int{}
		for i := 0; i < gen; i++ {
			if i%5 != 4 {
				live.Put(getBatchKey(i), i+1)
				model[string(getBatchKey(i))] = i + 1
			}
		}
		if live.Height() < 2 {
			t.Fatalf("height %d: the tree has no inner level", live.Height())
		}
		snap, snapModel := live.Clone(), maps.Clone(model)
		pair := func(b []byte) int { return int(binary.BigEndian.Uint16(b)) }
		writes, data := int(data[1])%16, data[2:]
		for ; writes > 0 && len(data) >= 2; writes, data = writes-1, data[2:] {
			v := pair(data)
			k := getBatchKey(v % space)
			if v&1 == 0 {
				live.Put(k, -v)
				model[string(k)] = -v
			} else {
				live.Delete(k)
				delete(model, string(k))
			}
		}
		var keys [][]byte
		for ; len(data) >= 2; data = data[2:] {
			if v := pair(data); v&0x8000 != 0 {
				keys = append(keys, append([]byte("samehead"), byte(v)))
			} else {
				keys = append(keys, getBatchKey(v%space))
			}
		}
		sorted := slices.Clone(keys)
		slices.SortFunc(sorted, func(a, b []byte) int { return slices.Compare(a, b) })
		for _, h := range []struct {
			name  string
			tree  *Tree[int]
			model map[string]int
		}{{"live", live, model}, {"snapshot", snap, snapModel}} {
			for _, ks := range [][][]byte{keys, sorted} {
				vals := make([]int, len(ks))
				for i := range vals {
					vals[i] = -1 << 40 // GetBatch must overwrite every value
				}
				absent := h.tree.GetBatch(ks, vals)
				wantAbsent := -1
				for i, k := range ks {
					want, stored := h.model[string(k)]
					got, ok := h.tree.Get(k)
					if ok != stored || got != want {
						t.Fatalf("%s: Get(%x) = %d, %v; stored %d, %v", h.name, k, got, ok, want, stored)
					}
					if vals[i] != want {
						t.Fatalf("%s: GetBatch value %d for %x = %d, want %d", h.name, i, k, vals[i], want)
					}
					if !stored && wantAbsent < 0 {
						wantAbsent = i
					}
				}
				if absent != wantAbsent {
					t.Fatalf("%s: GetBatch first absent = %d, want %d", h.name, absent, wantAbsent)
				}
			}
		}
	})
}
