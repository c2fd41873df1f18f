package btree

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzCOWSnapshotEquivalence drives a fuzz-chosen op sequence (put / delete /
// clone-snapshot) against the tree and a pair of model maps, then checks that
// the live tree matches the live model, the most recent snapshot matches the
// model frozen at clone time, both sides pass the full COW Validate, and Diff
// of the two reports every key whose presence or value differs (and, of the
// keys it skips with a shared subtree, none that does).
func FuzzCOWSnapshotEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 0, 3, 1, 1, 0, 4})
	f.Add([]byte{2, 0, 0, 1, 0, 2, 0, 1, 2, 1, 0, 2, 0, 3})
	f.Add([]byte{0, 10, 0, 20, 0, 30, 2, 1, 10, 1, 20, 0, 40, 2, 1, 30})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New[any]()
		liveModel := map[string]int{}
		var snap *Tree[any]
		var snapModel map[string]int

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%3, ops[i+1]
			k := fuzzKey(arg)
			switch op {
			case 0:
				tr.Put(k, i)
				liveModel[string(k)] = i
			case 1:
				tr.Delete(k)
				delete(liveModel, string(k))
			case 2:
				snap = tr.Clone()
				snapModel = map[string]int{}
				for kk, vv := range liveModel {
					snapModel[kk] = vv
				}
			}
		}

		checkModel(t, "live", tr, liveModel)
		if snap != nil {
			checkModel(t, "snapshot", snap, snapModel)
			if err := snap.Validate(); err != nil {
				t.Fatalf("snapshot Validate: %v", err)
			}
			checkDiff(t, snap, tr, snapModel, liveModel)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("live Validate: %v", err)
		}
	})
}

// checkDiff asserts Diff(a, b) reports keys in order, each side's value as
// its model holds it, and leaves out no key the models disagree on.
func checkDiff(t *testing.T, a, b *Tree[any], am, bm map[string]int) {
	t.Helper()
	seen := map[string]bool{}
	var prev []byte
	Diff(a, b, func(key []byte, av, bv interface{}) bool {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			t.Fatalf("Diff keys out of order: %x then %x", prev, key)
		}
		prev = key
		seen[string(key)] = true
		for _, side := range []struct {
			v interface{}
			m map[string]int
		}{{av, am}, {bv, bm}} {
			want, ok := side.m[string(key)]
			if (side.v != nil) != ok || (ok && side.v.(int) != want) {
				t.Fatalf("Diff key %x: value %v, model %d (present %v)", key, side.v, want, ok)
			}
		}
		return true
	})
	for _, m := range []map[string]int{am, bm} {
		for k := range m {
			av, aok := am[k]
			bv, bok := bm[k]
			if (aok != bok || av != bv) && !seen[k] {
				t.Fatalf("Diff skipped key %x that differs (%v,%v vs %v,%v)", k, av, aok, bv, bok)
			}
		}
	}
}

func fuzzKey(b byte) []byte {
	k := make([]byte, 2)
	binary.BigEndian.PutUint16(k, uint16(b)*257)
	return k
}

// checkModel asserts the tree's full ordered scan equals the sorted model.
func checkModel(t *testing.T, label string, tr *Tree[any], model map[string]int) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("%s: Len=%d, model=%d", label, tr.Len(), len(model))
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	it := tr.Seek(nil)
	for _, k := range keys {
		if !it.Valid() {
			t.Fatalf("%s: scan ended early, want key %x", label, k)
		}
		if string(it.Key()) != k {
			t.Fatalf("%s: scan key %x, want %x", label, it.Key(), k)
		}
		if got := it.Value().(int); got != model[k] {
			t.Fatalf("%s: key %x value %d, want %d", label, k, got, model[k])
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatalf("%s: scan has extra key %x", label, it.Key())
	}
	// Point lookups agree too.
	for _, k := range keys {
		v, ok := tr.Get([]byte(k))
		if !ok || v.(int) != model[k] {
			t.Fatalf("%s: Get(%x) = %v,%v want %d", label, k, v, ok, model[k])
		}
	}
}
