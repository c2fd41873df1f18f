package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// scan renders the full contents of a tree as one string, for byte-identical
// snapshot comparisons.
func scan(t *Tree[any]) string {
	var b bytes.Buffer
	for it := t.Seek(nil); it.Valid(); it.Next() {
		fmt.Fprintf(&b, "%s=%v\n", it.Key(), it.Value())
	}
	return b.String()
}

// TestSnapshotReadStability is the differential snapshot test: open a
// snapshot, record its full scan, run interleaved DML on the live handle,
// and assert an iteration of the snapshot — including one opened mid-DML and
// one opened before any DML — is byte-identical to the pre-DML scan.
func TestSnapshotReadStability(t *testing.T) {
	live := New[any]()
	for i := 0; i < 5000; i++ {
		live.Put(key(i), i)
	}
	snap := live.Clone()
	want := scan(snap)

	// An iterator opened on the snapshot BEFORE the DML must also survive it:
	// it holds node pointers that the live writer is forbidden to touch.
	early := snap.Seek(nil)

	r := rand.New(rand.NewSource(42))
	for op := 0; op < 8000; op++ {
		i := r.Intn(6000)
		switch op % 3 {
		case 0:
			live.Put(key(i), -i)
		case 1:
			live.Delete(key(i))
		case 2:
			live.Put([]byte(fmt.Sprintf("%08d-new", i)), op)
		}
		if op%1000 == 0 {
			if got := scan(snap); got != want {
				t.Fatalf("snapshot drifted after %d live ops", op+1)
			}
		}
	}

	if got := scan(snap); got != want {
		t.Fatal("snapshot not byte-identical to pre-DML scan after live DML")
	}
	var earlyScan bytes.Buffer
	for ; early.Valid(); early.Next() {
		fmt.Fprintf(&earlyScan, "%s=%v\n", early.Key(), early.Value())
	}
	if earlyScan.String() != want {
		t.Fatal("iterator opened before DML observed live mutations")
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid after live DML: %v", err)
	}
	if err := live.Validate(); err != nil {
		t.Fatalf("live tree invalid: %v", err)
	}
	if live.COWCopies() == 0 {
		t.Fatal("live writer should have path-copied shared nodes")
	}
}

// TestSnapshotScanDuringDML is the -race variant: concurrent readers iterate
// a frozen snapshot while the single writer churns the live handle. The
// race detector proves the writer never touches a node the snapshot reaches.
func TestSnapshotScanDuringDML(t *testing.T) {
	live := New[any]()
	for i := 0; i < 3000; i++ {
		live.Put(key(i), i)
	}
	snap := live.Clone()
	want := scan(snap)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if got := scan(snap); got != want {
					t.Error("concurrent snapshot scan drifted")
					return
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		i := r.Intn(4000)
		if op%4 == 0 {
			live.Delete(key(i))
		} else {
			live.Put(key(i), op)
		}
	}
	wg.Wait()
	if err := live.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIsConstantWork pins the O(1) clone contract structurally: a clone
// performs no node copies itself, and the first write after a clone copies
// exactly one root-to-leaf path.
func TestCloneIsConstantWork(t *testing.T) {
	live := New[any]()
	for i := 0; i < 50000; i++ {
		live.Put(key(i), i)
	}
	before := live.COWCopies()
	snap := live.Clone()
	if live.COWCopies() != before || snap.COWCopies() != 0 {
		t.Fatal("Clone itself copied nodes")
	}
	live.Put(key(5), -5) // replace: no splits, pure path copy
	if got, want := live.COWCopies()-before, int64(live.Height()); got != want {
		t.Fatalf("first post-clone write copied %d nodes, want height %d", got, want)
	}
	// Writing the same path again mutates in place: no further copies.
	at := live.COWCopies()
	live.Put(key(5), -6)
	if live.COWCopies() != at {
		t.Fatal("second write to an owned path still copied nodes")
	}
}

// TestSharedFootprintAccounting checks the bytes-shared/bytes-copied
// accounting the storage benchmarks report: right after a clone everything
// is shared; after writes the shared portion shrinks by exactly the copied
// paths while the snapshot's own footprint is unchanged.
func TestSharedFootprintAccounting(t *testing.T) {
	live := New[any]()
	for i := 0; i < 20000; i++ {
		live.Put(key(i), i)
	}
	snap := live.Clone()
	full := live.Footprint()
	if sh := live.SharedFootprint(snap); sh != full {
		t.Fatalf("post-clone shared %+v, want full footprint %+v", sh, full)
	}
	snapBefore := snap.Footprint()
	for i := 0; i < 1000; i++ {
		live.Put(key(i), -i)
	}
	sh := live.SharedFootprint(snap)
	lf := live.Footprint()
	if sh.Nodes >= lf.Nodes || sh.Bytes >= lf.Bytes {
		t.Fatalf("after writes shared %+v not below live %+v", sh, lf)
	}
	if copied := lf.Nodes - sh.Nodes; int64(copied) != live.COWCopies() {
		t.Fatalf("unshared nodes %d != recorded copies %d", copied, live.COWCopies())
	}
	if snap.Footprint() != snapBefore {
		t.Fatal("live writes changed the snapshot's footprint")
	}
}

// TestValidateDetectsEpochViolations forges the two corruption shapes the
// extended Validate exists to catch: a node tagged newer than its parent
// (an in-place mutation that skipped path-copying) and a node tagged ahead
// of the family clock.
func TestValidateDetectsEpochViolations(t *testing.T) {
	tr := New[any]()
	for i := 0; i < 500; i++ {
		tr.Put(key(i), i)
	}
	snap := tr.Clone()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	// Forge: pretend a live writer mutated a leaf the snapshot can reach by
	// re-tagging it with the live handle's (newer) epoch.
	root := snap.root.(*inner[any])
	l := root.children[0].(*leaf[any])
	saved := l.epoch
	l.epoch = tr.epoch
	if err := snap.Validate(); err == nil {
		t.Fatal("Validate missed a cross-snapshot epoch violation")
	}
	l.epoch = saved

	// Forge: an epoch beyond anything the family clock ever allocated.
	l.epoch = snap.clock.n.Load() + 10
	snap.epoch = l.epoch + 1 // keep parent/handle ordering valid
	if err := snap.Validate(); err == nil {
		t.Fatal("Validate missed an epoch beyond the family clock")
	}
}

// TestSnapshotChainsDeep exercises repeated snapshots of snapshots with
// interleaved writes at every level — the regression-detector pattern of
// holding several historical snapshots at once.
func TestSnapshotChainsDeep(t *testing.T) {
	tr := New[any]()
	ref := map[string]interface{}{}
	r := rand.New(rand.NewSource(13))
	type held struct {
		tree *Tree[any]
		want string
	}
	var snaps []held
	for round := 0; round < 8; round++ {
		for op := 0; op < 2000; op++ {
			i := r.Intn(3000)
			if r.Intn(4) == 0 {
				tr.Delete(key(i))
				delete(ref, string(key(i)))
			} else {
				tr.Put(key(i), round*10000+op)
				ref[string(key(i))] = round*10000 + op
			}
		}
		s := tr.Clone()
		snaps = append(snaps, held{s, scan(s)})
		// Every held snapshot must still read exactly as frozen.
		for d, h := range snaps {
			if scan(h.tree) != h.want {
				t.Fatalf("round %d: snapshot %d drifted", round, d)
			}
			if err := h.tree.Validate(); err != nil {
				t.Fatalf("round %d: snapshot %d invalid: %v", round, d, err)
			}
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("live Len = %d, model %d", tr.Len(), len(ref))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDiffPrunesSharedSubtrees: after a handful of writes to a large live
// tree, Diff against the snapshot visits only the leaves those writes
// copied — a few hundred entries of 50 000 — reports exactly the changed
// keys among them, survives the live root splitting to a taller tree, and
// walks a tree rebuilt from scratch, which shares nothing, in full.
func TestDiffPrunesSharedSubtrees(t *testing.T) {
	keys := make([][]byte, 50000)
	vals := make([]any, len(keys))
	for i := range keys {
		keys[i], vals[i] = key(2*i), i
	}
	live := BulkLoad(slabOf(keys), nil, vals)
	snap := live.Clone()
	Diff(snap, live, func([]byte, interface{}, interface{}) bool {
		t.Fatal("identical handles reported an entry")
		return false
	})

	live.Put(key(10), -1)         // replace
	live.Delete(key(40000))       // delete
	live.Put(key(60001), "fresh") // insert between two keys
	want := map[string]bool{string(key(10)): true, string(key(40000)): true, string(key(60001)): true}
	visited := 0
	Diff(snap, live, func(k []byte, av, bv interface{}) bool {
		visited++
		changed := av == nil || bv == nil || av != bv
		if changed != want[string(k)] {
			t.Errorf("key %s: a=%v b=%v, changed=%v", k, av, bv, changed)
		}
		delete(want, string(k))
		return true
	})
	if len(want) != 0 {
		t.Fatalf("missed %v", want)
	}
	if visited > 3*(degree+1) {
		t.Fatalf("visited %d entries for three single-leaf writes", visited)
	}

	// Grow the live tree until its root splits: the snapshot's whole tree is
	// then one subtree below the live root's level.
	h := live.Height()
	for i := 0; live.Height() == h; i++ {
		live.Put(key(200000+i), i)
	}
	old := 0
	Diff(snap, live, func(k []byte, av, bv interface{}) bool {
		if av != nil {
			old++
		}
		return true
	})
	if old > 8*degree {
		t.Fatalf("after a root split Diff walked %d snapshot entries", old)
	}

	// Early stop, and a reload that shares no node.
	n := 0
	Diff(snap, live, func([]byte, interface{}, interface{}) bool { n++; return false })
	if n != 1 {
		t.Fatalf("fn returning false was called %d times", n)
	}
	n = 0
	Diff(snap, BulkLoad(slabOf(keys), nil, vals), func([]byte, interface{}, interface{}) bool { n++; return true })
	if n != len(keys) {
		t.Fatalf("unrelated trees: %d entries reported, want all %d", n, len(keys))
	}
}
