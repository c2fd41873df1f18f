package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortedSlab returns the n strictly-increasing keys key(from), key(from+1),
// ... as a slab, with their numbers as values.
func sortedSlab(from, n int) (Slab, []any) {
	keys := make([][]byte, n)
	vals := make([]any, n)
	for i := range keys {
		keys[i], vals[i] = key(from+i), from+i
	}
	return slabOf(keys), vals
}

// loadSorted bulk-loads the keys key(0) .. key(n-1).
func loadSorted(n int) *Tree[any] {
	s, vals := sortedSlab(0, n)
	return BulkLoad(s, nil, vals)
}

// appendSorted bulk-appends the keys key(from) .. key(from+n-1).
func appendSorted(tr *Tree[any], from, n int) bool {
	s, vals := sortedSlab(from, n)
	return tr.AppendBulk(s, nil, vals)
}

// assertEqualTrees checks both trees hold exactly the same entries in the
// same order and both pass Validate.
func assertEqualTrees(t *testing.T, got, want *Tree[any]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	ig, iw := got.Seek(nil), want.Seek(nil)
	for pos := 0; iw.Valid(); pos++ {
		if !ig.Valid() {
			t.Fatalf("got tree ended early at %d", pos)
		}
		if !bytes.Equal(ig.Key(), iw.Key()) {
			t.Fatalf("key mismatch at %d: %q vs %q", pos, ig.Key(), iw.Key())
		}
		if ig.Value() != iw.Value() {
			t.Fatalf("value mismatch at %d", pos)
		}
		ig.Next()
		iw.Next()
	}
	if ig.Valid() {
		t.Fatal("got tree has extra entries")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("got tree invalid: %v", err)
	}
	if err := want.Validate(); err != nil {
		t.Fatalf("want tree invalid: %v", err)
	}
}

func TestBulkLoadMatchesPut(t *testing.T) {
	for _, n := range []int{0, 1, 2, 57, 58, 100, 3650, 20000} {
		bulk := loadSorted(n)
		inc := New[any]()
		for i := 0; i < n; i++ {
			inc.Put(key(i), i)
		}
		assertEqualTrees(t, bulk, inc)
		if n > 0 {
			if v, ok := bulk.Get(key(n / 2)); !ok || v.(int) != n/2 {
				t.Fatalf("n=%d: Get(mid) = %v, %v", n, v, ok)
			}
		}
		// ~90% fill: at scale a bulk tree must not use more leaves than an
		// incremental one (whose pages are 50-100% full). Tiny trees can
		// round the other way (58 entries = 2 packed leaves vs 1 unsplit).
		if n >= 1000 && bulk.Leaves() > inc.Leaves() {
			t.Fatalf("n=%d: bulk used %d leaves, incremental %d", n, bulk.Leaves(), inc.Leaves())
		}
	}
}

func TestBulkLoadFill(t *testing.T) {
	tr := loadSorted(100000)
	if fp := tr.FillPercent(); fp < 80 || fp > 95 {
		t.Fatalf("FillPercent = %.1f, want ~90", fp)
	}
}

func TestBulkLoadUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BulkLoad accepted unsorted input")
		}
	}()
	BulkLoad[any](slabOf([][]byte{key(2), key(1)}), nil, nil)
}

func TestBulkLoadThenMutate(t *testing.T) {
	tr := loadSorted(5000)
	// A bulk-built tree must absorb regular Puts and Deletes.
	for i := 0; i < 5000; i += 3 {
		tr.Put([]byte(fmt.Sprintf("%08d-x", i)), -i)
	}
	for i := 0; i < 5000; i += 5 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) missing", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBulk(t *testing.T) {
	// Onto an empty tree.
	tr := New[any]()
	if !appendSorted(tr, 0, 500) {
		t.Fatal("AppendBulk on empty tree rejected")
	}
	// Onto a populated tree, keys beyond the current max.
	if !appendSorted(tr, 500, 500) {
		t.Fatal("AppendBulk beyond max rejected")
	}
	want := New[any]()
	for i := 0; i < 1000; i++ {
		want.Put(key(i), i)
	}
	assertEqualTrees(t, tr, want)

	// Overlapping keys must be rejected without mutation.
	before := tr.Len()
	if tr.AppendBulk(slabOf([][]byte{key(10)}), nil, nil) {
		t.Fatal("AppendBulk accepted overlapping key")
	}
	if tr.AppendBulk(slabOf([][]byte{key(2000), key(1500)}), nil, nil) {
		t.Fatal("AppendBulk accepted unsorted input")
	}
	if tr.Len() != before {
		t.Fatal("rejected AppendBulk mutated the tree")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBulkRepeatedBatches(t *testing.T) {
	tr := New[any]()
	pos := 0
	for batch := 0; batch < 40; batch++ {
		n := 1 + (batch*37)%200
		if !appendSorted(tr, pos, n) {
			t.Fatalf("batch %d rejected", batch)
		}
		pos += n
	}
	if tr.Len() != pos {
		t.Fatalf("Len = %d, want %d", tr.Len(), pos)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	i := 0
	for it := tr.Seek(nil); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("position %d: key %s", i, it.Key())
		}
		i++
	}
}

func TestClone(t *testing.T) {
	src := New[any]()
	perm := rand.New(rand.NewSource(5)).Perm(8000)
	for _, i := range perm {
		src.Put(key(i), i)
	}
	cl := src.Clone()
	assertEqualTrees(t, cl, src)
	// Page accounting must be preserved exactly.
	if cl.Leaves() != src.Leaves() {
		t.Fatalf("clone has %d leaves, source %d", cl.Leaves(), src.Leaves())
	}
	if cl.Height() != src.Height() {
		t.Fatalf("clone height %d, source %d", cl.Height(), src.Height())
	}
	// Mutations must not leak either way.
	cl.Put(key(9001), 9001)
	cl.Delete(key(0))
	if _, ok := src.Get(key(9001)); ok {
		t.Fatal("clone Put leaked into source")
	}
	if _, ok := src.Get(key(0)); !ok {
		t.Fatal("clone Delete leaked into source")
	}
	src.Delete(key(1))
	if _, ok := cl.Get(key(1)); !ok {
		t.Fatal("source Delete leaked into clone")
	}
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneEmpty(t *testing.T) {
	cl := New[any]().Clone()
	if cl.Len() != 0 || cl.Leaves() != 1 || cl.Height() != 1 {
		t.Fatalf("empty clone: len=%d leaves=%d height=%d", cl.Len(), cl.Leaves(), cl.Height())
	}
	cl.Put(key(1), 1)
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteUnlinksEmptyLeaves(t *testing.T) {
	tr := New[any]()
	n := 10000
	for i := 0; i < n; i++ {
		tr.Put(key(i), i)
	}
	full := tr.Leaves()
	// Delete a contiguous half: the vacated leaves must be unlinked and the
	// counter must come down with them.
	for i := 0; i < n/2; i++ {
		tr.Delete(key(i))
	}
	if tr.Leaves() >= full {
		t.Fatalf("leaves did not shrink: %d -> %d", full, tr.Leaves())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deleted range must still be insertable and scannable.
	for i := 0; i < 100; i++ {
		tr.Put(key(i), -i)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	count := 0
	for it := tr.Seek(nil); it.Valid(); it.Next() {
		count++
	}
	if count != tr.Len() {
		t.Fatalf("scan saw %d, Len %d", count, tr.Len())
	}
	// Drain completely: the tree must reset to a single empty page.
	for it := tr.Seek(nil); it.Valid(); it.Next() {
	}
	for i := 0; i < n; i++ {
		tr.Delete(key(i))
	}
	if tr.Len() != 0 || tr.Leaves() != 1 || tr.Height() != 1 {
		t.Fatalf("drained tree: len=%d leaves=%d height=%d", tr.Len(), tr.Leaves(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Put(key(1), 1)
	if v, ok := tr.Get(key(1)); !ok || v.(int) != 1 {
		t.Fatal("reuse after drain failed")
	}
}

func TestDeleteRandomLeafAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := New[any]()
	live := map[int]bool{}
	for op := 0; op < 30000; op++ {
		i := r.Intn(4000)
		if r.Intn(3) == 0 {
			tr.Put(key(i), i)
			live[i] = true
		} else {
			tr.Delete(key(i))
			delete(live, i)
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafStrideIteration(t *testing.T) {
	tr := New[any]()
	n := 20000
	for i := 0; i < n; i++ {
		tr.Put(key(i), i)
	}
	// Visiting every other page reads roughly half the entries while
	// walking only the pages it reads.
	it := tr.Seek(nil)
	read, pages := 0, 0
	for it.Valid() {
		if pages%2 == 1 {
			it.SkipLeaf()
			pages++
			continue
		}
		for k := it.LeafLen(); k > 0 && it.Valid(); k-- {
			read++
			it.Next()
		}
		pages++
	}
	if read == 0 || read >= n {
		t.Fatalf("stride read %d of %d", read, n)
	}
	if got, want := read, n/2; got < want-degree || got > want+degree {
		t.Fatalf("stride read %d, want ~%d", got, want)
	}
}

func TestBulkLoadAgainstSortedRandomKeys(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	uniq := map[string]bool{}
	var keys []string
	for len(keys) < 5000 {
		b := make([]byte, 1+r.Intn(16))
		r.Read(b)
		if !uniq[string(b)] {
			uniq[string(b)] = true
			keys = append(keys, string(b))
		}
	}
	sort.Strings(keys)
	bs := make([][]byte, len(keys))
	vals := make([]any, len(keys))
	inc := New[any]()
	for i, k := range keys {
		bs[i], vals[i] = []byte(k), i
		inc.Put([]byte(k), i)
	}
	assertEqualTrees(t, BulkLoad(slabOf(bs), nil, vals), inc)
}

func BenchmarkBulkLoad(b *testing.B) {
	s, vals := sortedSlab(0, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(s, nil, vals)
	}
}

func BenchmarkIncrementalLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := New[any]()
		for j := 0; j < 100000; j++ {
			tr.Put(key(j), j)
		}
	}
}

func BenchmarkTreeClone(b *testing.B) {
	src := loadSorted(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Clone()
	}
}
