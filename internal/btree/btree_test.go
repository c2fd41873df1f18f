package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) }

func TestPutGet(t *testing.T) {
	tr := New[any]()
	for i := 0; i < 1000; i++ {
		if !tr.Put(key(i), i) {
			t.Fatalf("Put(%d) reported replace", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v.(int) != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get([]byte("nope")); ok {
		t.Fatal("Get(nope) found")
	}
}

func TestPutReplace(t *testing.T) {
	tr := New[any]()
	tr.Put(key(1), "a")
	if tr.Put(key(1), "b") {
		t.Fatal("replace reported insert")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	v, _ := tr.Get(key(1))
	if v.(string) != "b" {
		t.Fatalf("value = %v", v)
	}
}

func TestDelete(t *testing.T) {
	tr := New[any]()
	for i := 0; i < 500; i++ {
		tr.Put(key(i), i)
	}
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) not found", i)
		}
	}
	if tr.Delete(key(0)) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 500; i++ {
		_, ok := tr.Get(key(i))
		if ok != (i%2 == 1) {
			t.Fatalf("Get(%d) presence = %v", i, ok)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIterFullScan(t *testing.T) {
	tr := New[any]()
	n := 5000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		tr.Put(key(i), i)
	}
	i := 0
	for it := tr.Seek(nil); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("position %d: key %s", i, it.Key())
		}
		if it.Value().(int) != i {
			t.Fatalf("position %d: value %v", i, it.Value())
		}
		i++
	}
	if i != n {
		t.Fatalf("scanned %d of %d", i, n)
	}
}

func TestSeekRange(t *testing.T) {
	tr := New[any]()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), i)
	}
	var got []int
	for it := tr.SeekRange(key(10), key(20), false); it.Valid(); it.Next() {
		got = append(got, it.Value().(int))
	}
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("exclusive range got %v", got)
	}
	got = nil
	for it := tr.SeekRange(key(10), key(20), true); it.Valid(); it.Next() {
		got = append(got, it.Value().(int))
	}
	if len(got) != 11 || got[10] != 20 {
		t.Fatalf("inclusive range got %v", got)
	}
	// Open lower bound.
	got = nil
	for it := tr.SeekRange(nil, key(3), false); it.Valid(); it.Next() {
		got = append(got, it.Value().(int))
	}
	if len(got) != 3 {
		t.Fatalf("open-low range got %v", got)
	}
	// Seek between keys lands on next key.
	it := tr.Seek([]byte("00000010x"))
	if !it.Valid() || it.Value().(int) != 11 {
		t.Fatalf("between-keys seek got %v", it.Value())
	}
}

func TestLeavesWalkedAccounting(t *testing.T) {
	tr := New[any]()
	for i := 0; i < 10000; i++ {
		tr.Put(key(i), i)
	}
	it := tr.Seek(nil)
	for ; it.Valid(); it.Next() {
	}
	if it.LeavesWalked() < tr.Leaves() {
		t.Fatalf("full scan walked %d leaves, tree has %d", it.LeavesWalked(), tr.Leaves())
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d, want >= 2 for 10k keys", tr.Height())
	}
	// A narrow scan should touch far fewer leaves than the tree has.
	it2 := tr.SeekRange(key(500), key(510), false)
	for ; it2.Valid(); it2.Next() {
	}
	if it2.LeavesWalked() > 3 {
		t.Fatalf("narrow scan walked %d leaves", it2.LeavesWalked())
	}
}

// TestRandomOpsAgainstMap drives the tree with random operations and checks
// it always matches a reference map, plus structural invariants.
func TestRandomOpsAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr := New[any]()
	ref := map[string]int{}
	for op := 0; op < 20000; op++ {
		k := key(r.Intn(3000))
		switch r.Intn(3) {
		case 0, 1:
			v := r.Int()
			tr.Put(k, v)
			ref[string(k)] = v
		case 2:
			got := tr.Delete(k)
			_, want := ref[string(k)]
			if got != want {
				t.Fatalf("Delete(%s) = %v, want %v", k, got, want)
			}
			delete(ref, string(k))
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	for it := tr.Seek(nil); it.Valid(); it.Next() {
		if string(it.Key()) != keys[i] {
			t.Fatalf("iter position %d: %s want %s", i, it.Key(), keys[i])
		}
		if it.Value().(int) != ref[keys[i]] {
			t.Fatalf("iter value mismatch at %s", keys[i])
		}
		i++
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSortedInvariantProperty is a quick-check over random insertion sets.
func TestSortedInvariantProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		r := rand.New(rand.NewSource(seed))
		tr := New[any]()
		for i := 0; i < n; i++ {
			b := make([]byte, 1+r.Intn(12))
			r.Read(b)
			tr.Put(b, i)
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKeyIsCopied(t *testing.T) {
	tr := New[any]()
	k := []byte("abc")
	tr.Put(k, 1)
	k[0] = 'z'
	if _, ok := tr.Get([]byte("abc")); !ok {
		t.Fatal("tree aliased caller's key buffer")
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New[any]()
	for i := 0; i < b.N; i++ {
		tr.Put(key(i), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[any]()
	for i := 0; i < 100000; i++ {
		tr.Put(key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 100000))
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr := New[any]()
	for i := 0; i < 100000; i++ {
		tr.Put(key(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 37) % 99900
		it := tr.SeekRange(key(start), key(start+100), false)
		for ; it.Valid(); it.Next() {
		}
	}
}

// TestSeekRangePrefixInclusive pins the prefix-inclusive upper-bound
// semantics: an inclusive bound admits keys equal to it AND keys extending it
// byte-wise, which is how composite-index scans express "leading columns <= v"
// without appending an artificial successor byte.
func TestSeekRangePrefixInclusive(t *testing.T) {
	tr := New[any]()
	// Composite-style keys: a short prefix followed by a suffix.
	put := func(s string) { tr.Put([]byte(s), s) }
	for _, s := range []string{"a|1", "a|2", "b|1", "b|2", "b|3", "c|1"} {
		put(s)
	}
	collect := func(from, to string, inc bool) []string {
		var got []string
		var f, h []byte
		if from != "" {
			f = []byte(from)
		}
		if to != "" {
			h = []byte(to)
		}
		for it := tr.SeekRange(f, h, inc); it.Valid(); it.Next() {
			got = append(got, it.Value().(string))
		}
		return got
	}
	// Inclusive bound "b" admits every key with prefix "b".
	got := collect("", "b", true)
	want := []string{"a|1", "a|2", "b|1", "b|2", "b|3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("prefix-inclusive got %v want %v", got, want)
	}
	// Exclusive bound "b" stops before the first "b"-prefixed key.
	got = collect("", "b", false)
	want = []string{"a|1", "a|2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("exclusive got %v want %v", got, want)
	}
	// An exact-key inclusive bound still admits the key itself.
	got = collect("b|2", "b|2", true)
	want = []string{"b|2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("exact inclusive got %v want %v", got, want)
	}
}

// TestReadBatchMatchesIteration drives ReadBatch and a plain Valid/Next loop
// over identical ranges and asserts the same entries in the same order AND
// the same LeavesWalked accounting, across batch sizes that straddle leaf
// boundaries.
func TestReadBatchMatchesIteration(t *testing.T) {
	tr := New[any]()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Put(key(i), i)
	}
	ranges := []struct {
		lo, hi int // -1 = nil bound
		inc    bool
	}{
		{-1, -1, false},
		{-1, 2500, false},
		{100, 4900, false},
		{100, 4900, true},
		{2000, 2000, true},
		{4999, -1, false},
		{0, 1, false},
	}
	for _, bs := range []int{1, 3, 64, 1024, 8192} {
		for _, rg := range ranges {
			var lo, hi []byte
			if rg.lo >= 0 {
				lo = key(rg.lo)
			}
			if rg.hi >= 0 {
				hi = key(rg.hi)
			}
			itA := tr.SeekRange(lo, hi, rg.inc)
			var wantVals []int
			for ; itA.Valid(); itA.Next() {
				wantVals = append(wantVals, itA.Value().(int))
			}
			itB := tr.SeekRange(lo, hi, rg.inc)
			keys := make([][]byte, bs)
			vals := make([]interface{}, bs)
			var gotVals []int
			for {
				m := itB.ReadBatch(keys, vals, bs)
				if m == 0 {
					break
				}
				for i := 0; i < m; i++ {
					v := vals[i].(int)
					if !bytes.Equal(keys[i], key(v)) {
						t.Fatalf("batch key/val mismatch at %d", v)
					}
					gotVals = append(gotVals, v)
				}
			}
			if fmt.Sprint(gotVals) != fmt.Sprint(wantVals) {
				t.Fatalf("bs=%d range=%v: batch entries diverge (%d vs %d)", bs, rg, len(gotVals), len(wantVals))
			}
			if itA.LeavesWalked() != itB.LeavesWalked() {
				t.Fatalf("bs=%d range=%v: LeavesWalked %d (batch) vs %d (loop)", bs, rg, itB.LeavesWalked(), itA.LeavesWalked())
			}
		}
	}
}

// TestTypedValuesFootprint: a tree's value slots are inline, so a keys-only
// Tree[struct{}] pays nothing per entry beyond its key, and a tree of slice
// values pays the slice header — the same nodes, 24 bytes per entry apart.
func TestTypedValuesFootprint(t *testing.T) {
	keys, rows := New[struct{}](), New[[]int]()
	for i := 0; i < 500; i++ {
		keys.Put(key(i), struct{}{})
		rows.Put(key(i), []int{i})
	}
	fk, fr := keys.Footprint(), rows.Footprint()
	if fk.Nodes != fr.Nodes || fr.Bytes-fk.Bytes != 500*24 {
		t.Fatalf("keys-only %+v, slice-valued %+v: want the same nodes, 24 B per entry apart", fk, fr)
	}
	got := make([][]byte, 600)
	if n := keys.Seek(nil).ReadBatch(got, make([]struct{}, 600), 600); n != 500 || !bytes.Equal(got[499], key(499)) {
		t.Fatalf("ReadBatch read %d keys ending %q", n, got[max(n-1, 0)])
	}
}
