package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"aim/internal/btree"
	"aim/internal/catalog"
	"aim/internal/obs"
	"aim/internal/sqltypes"
)

// seededStore builds a store with two tables, secondary indexes, and rows
// inserted in a shuffled (non-PK) order so clone equivalence is exercised
// on trees grown incrementally.
func seededStore(t testing.TB, rows int) *Store {
	t.Helper()
	s := NewStore()
	users, err := catalog.NewTable("users", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "name", Type: sqltypes.KindString},
		{Name: "age", Type: sqltypes.KindInt},
		{Name: "city", Type: sqltypes.KindString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := catalog.NewTable("orders", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "user_id", Type: sqltypes.KindInt},
		{Name: "amount", Type: sqltypes.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	ut, _ := s.CreateTable(users)
	ot, _ := s.CreateTable(orders)
	r := rand.New(rand.NewSource(17))
	for _, i := range r.Perm(rows) {
		if err := ut.Insert(userRow(int64(i), fmt.Sprintf("u%d", i), int64(i%80), fmt.Sprintf("c%d", i%13)), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range r.Perm(rows * 2) {
		row := sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % rows)), sqltypes.NewInt(int64(i % 997))}
		if err := ot.Insert(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ut.BuildIndex(&catalog.Index{Name: "u_city_age", Table: "users", Columns: []string{"city", "age"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ot.BuildIndex(&catalog.Index{Name: "o_user", Table: "orders", Columns: []string{"user_id"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ot.BuildIndex(&catalog.Index{Name: "o_amount", Table: "orders", Columns: []string{"amount"}}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// renderStore serializes every table and index entry plus the page
// accounting, for byte-identical comparisons.
func renderStore(s *Store) string {
	var b strings.Builder
	var names []string
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := s.tables[name]
		fmt.Fprintf(&b, "table %s rows=%d bytes=%d leaves=%d height=%d\n",
			name, t.RowCount(), t.DataSize(), t.Data().Leaves(), t.Data().Height())
		for it := t.Data().Seek(nil); it.Valid(); it.Next() {
			fmt.Fprintf(&b, "  %x -> %v\n", it.Key(), it.Value())
		}
		var ixNames []string
		for n := range t.indexes {
			ixNames = append(ixNames, n)
		}
		sort.Strings(ixNames)
		for _, n := range ixNames {
			ix := t.indexes[n]
			fmt.Fprintf(&b, "index %s len=%d bytes=%d leaves=%d height=%d\n",
				n, ix.Len(), ix.SizeBytes(), ix.Tree().Leaves(), ix.Tree().Height())
			for it := ix.Tree().Seek(nil); it.Valid(); it.Next() {
				fmt.Fprintf(&b, "  %x\n", it.Key())
			}
		}
	}
	return b.String()
}

func TestCloneBulkEquivalence(t *testing.T) {
	s := seededStore(t, 500)
	clone := s.Clone()
	if got, want := renderStore(clone), renderStore(s); got != want {
		t.Fatal("clone is not entry-identical to the source")
	}
	// Tree invariants hold on every cloned tree.
	for _, tbl := range clone.tables {
		if err := tbl.Data().Validate(); err != nil {
			t.Fatal(err)
		}
		for _, ix := range tbl.indexes {
			if err := ix.Tree().Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Clone isolation: mutations on one side must not appear on the other.
	ct := clone.Table("users")
	if err := ct.Insert(userRow(100000, "new", 1, "zz"), nil); err != nil {
		t.Fatal(err)
	}
	if !ct.DeleteByPK(ct.PKKey(userRow(3, "", 0, "")), nil) {
		t.Fatal("delete on clone failed")
	}
	st := s.Table("users")
	if _, ok := st.GetByPK(st.PKKey(userRow(100000, "", 0, "")), nil); ok {
		t.Fatal("clone insert leaked into source")
	}
	if _, ok := st.GetByPK(st.PKKey(userRow(3, "", 0, "")), nil); !ok {
		t.Fatal("clone delete leaked into source")
	}
}

func TestCloneDeterministicAcrossWorkers(t *testing.T) {
	s := seededStore(t, 300)
	var want string
	for _, workers := range []int{1, 2, 8} {
		s.Workers = workers
		got := renderStore(s.Clone())
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("clone at workers=%d diverged from workers=1", workers)
		}
	}
	// Instrumentation must not perturb the clone either.
	Instrument(obs.NewRegistry())
	defer Instrument(nil)
	s.Workers = 4
	if renderStore(s.Clone()) != want {
		t.Fatal("instrumented clone diverged")
	}
}

func TestCloneInheritsWorkers(t *testing.T) {
	s := seededStore(t, 10)
	s.Workers = 3
	if got := s.Clone().Workers; got != 3 {
		t.Fatalf("clone Workers = %d, want 3", got)
	}
}

// newRegionsTable is a table with a composite string+int primary key, so pk
// encodings (and the pk tails of index entries) differ in length.
func newRegionsTable(t *testing.T) *Table {
	t.Helper()
	def, err := catalog.NewTable("regions", []catalog.Column{
		{Name: "region", Type: sqltypes.KindString},
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "city", Type: sqltypes.KindString},
		{Name: "age", Type: sqltypes.KindInt},
	}, []string{"region", "id"})
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(def)
}

// regionRows returns n rows in primary-key order, with regions drawn above
// from, NULL cities and ages, and cities holding 0x00 bytes (escaped in keys).
func regionRows(r *rand.Rand, n int, from string) []sqltypes.Row {
	cities := []string{"", "a", "a\x00", "a\x00b", "ab", "b\x00\x00"}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		row := sqltypes.Row{sqltypes.NewString(fmt.Sprintf("%s%03d", from, i/7)), sqltypes.NewInt(int64(i % 7)), sqltypes.Null, sqltypes.Null}
		if r.Intn(5) > 0 {
			row[2] = sqltypes.NewString(cities[r.Intn(len(cities))])
		}
		if r.Intn(5) > 0 {
			row[3] = sqltypes.NewInt(int64(r.Intn(40)))
		}
		rows[i] = row
	}
	return rows
}

// sortedEntries encodes ix's entries for rows value by value (oracleEntry),
// comparison-sorts them and packs them into a slab in that order.
func sortedEntries(ix *Index, rows []sqltypes.Row) btree.Slab {
	keys := make([][]byte, len(rows))
	for i, row := range rows {
		keys[i] = oracleEntry(ix, row)
	}
	slices.SortFunc(keys, bytes.Compare)
	s := btree.Slab{Offs: []int{0}}
	for _, k := range keys {
		s.Buf = append(s.Buf, k...)
		s.Offs = append(s.Offs, len(s.Buf))
	}
	return s
}

// tableRows returns the table's rows in clustered order.
func tableRows(tbl *Table) []sqltypes.Row {
	var rows []sqltypes.Row
	for it := tbl.Data().Seek(nil); it.Valid(); it.Next() {
		rows = append(rows, it.Value())
	}
	return rows
}

// sameEntries fails unless got and want hold the same entry keys.
func sameEntries(t *testing.T, got, want *btree.Tree[struct{}]) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	ia, ib := got.Seek(nil), want.Seek(nil)
	for ib.Valid() {
		if !ia.Valid() || !bytes.Equal(ia.Key(), ib.Key()) {
			t.Fatal("entries diverged from the reference")
		}
		ia.Next()
		ib.Next()
	}
	if ia.Valid() {
		t.Fatal("extra entries beyond the reference")
	}
}

// sameTree is sameEntries plus the page accounting: node for node.
func sameTree(t *testing.T, got, want *btree.Tree[struct{}]) {
	t.Helper()
	sameEntries(t, got, want)
	if got.Len() != want.Len() || got.Leaves() != want.Leaves() || got.Height() != want.Height() {
		t.Fatalf("len/leaves/height = %d/%d/%d, want %d/%d/%d",
			got.Len(), got.Leaves(), got.Height(), want.Len(), want.Leaves(), want.Height())
	}
}

// incrementalIndex grows def's index the way per-row maintenance does: the
// index exists first and every row arrives through Insert.
func incrementalIndex(t *testing.T, def *catalog.Index, tbl *Table, rows []sqltypes.Row) *Index {
	t.Helper()
	ref := NewTable(tbl.Def)
	ix, err := ref.BuildIndex(def, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := ref.Insert(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestBuildIndexBulkMatchesIncremental(t *testing.T) {
	regions := newRegionsTable(t)
	if err := regions.InsertBatch(regionRows(rand.New(rand.NewSource(3)), 700, "r"), nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tbl  *Table
		def  *catalog.Index
	}{
		{"int", seededStore(t, 400).Table("users"), &catalog.Index{Name: "u_age", Table: "users", Columns: []string{"age"}}},
		{"composite_nulls", regions, &catalog.Index{Name: "r_city_age", Table: "regions", Columns: []string{"city", "age"}}},
		{"pk_prefix", regions, &catalog.Index{Name: "r_region", Table: "regions", Columns: []string{"region"}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var m Metrics
			ix, err := c.tbl.PrepareIndex(c.def, &m)
			if err != nil {
				t.Fatal(err)
			}
			rows := tableRows(c.tbl)
			inc := incrementalIndex(t, c.def, c.tbl, rows)
			sameEntries(t, ix.Tree(), inc.Tree())
			if ix.SizeBytes() != inc.SizeBytes() {
				t.Fatalf("bytes = %d, incremental %d", ix.SizeBytes(), inc.SizeBytes())
			}
			// Node for node the bulk load of the comparison-sorted entries.
			want := btree.BulkLoad[struct{}](sortedEntries(ix, rows), nil, nil)
			sameTree(t, ix.Tree(), want)
			n := int64(len(rows))
			if wantM := (Metrics{RowsRead: n, IndexWrites: n, PageReads: int64(c.tbl.Data().Leaves() + want.Leaves())}); m != wantM {
				t.Fatalf("metrics = %+v, want %+v", m, wantM)
			}
		})
	}
}

// TestInsertBatchIntoIndexedTableMatchesReference appends a batch to a table
// that already has secondary indexes: each index must come out node for node
// as the comparison-sorted batch entries appended (or, where they interleave
// with existing keys, Put in order) onto its previous tree.
func TestInsertBatchIntoIndexedTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tbl := newRegionsTable(t)
	first := regionRows(r, 600, "m")
	if err := tbl.InsertBatch(first, nil); err != nil {
		t.Fatal(err)
	}
	defs := []*catalog.Index{
		{Name: "r_city_age", Table: "regions", Columns: []string{"city", "age"}},
		{Name: "r_region", Table: "regions", Columns: []string{"region"}}, // appends: new regions sort last
		{Name: "r_age", Table: "regions", Columns: []string{"age"}},
	}
	before := map[string]*btree.Tree[struct{}]{}
	for _, def := range defs {
		ix, err := tbl.BuildIndex(def, nil)
		if err != nil {
			t.Fatal(err)
		}
		before[def.Name] = ix.Tree().Clone()
	}
	second := regionRows(r, 400, "z")
	var m Metrics
	if err := tbl.InsertBatch(second, &m); err != nil {
		t.Fatal(err)
	}
	for _, def := range defs {
		ix := tbl.Index(def.Name)
		want := before[def.Name]
		entries := sortedEntries(ix, second)
		if !want.AppendBulk(entries, nil, nil) {
			for i := range entries.Len() {
				want.Put(entries.Key(i), struct{}{})
			}
		}
		sameTree(t, ix.Tree(), want)
		sameEntries(t, ix.Tree(), incrementalIndex(t, def, tbl, append(slices.Clone(first), second...)).Tree())
	}
	pages := int64(len(second)+1)/int64(bulkPageEntries) + 1
	n := int64(len(second))
	if wantM := (Metrics{RowWrites: n, IndexWrites: n * int64(len(defs)), PageReads: pages * int64(1+len(defs))}); m != wantM {
		t.Fatalf("metrics = %+v, want %+v", m, wantM)
	}
}

// TestBuiltKeysDoNotShareCapacity appends to every key taken from bulk-built
// trees, and to the clustered key at its tail: each key is cut from its
// leaf's run of one key buffer with cap == len, so the append must
// reallocate and leave the neighbouring entries unchanged.
func TestBuiltKeysDoNotShareCapacity(t *testing.T) {
	tbl := newRegionsTable(t)
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "r_city", Table: "regions", Columns: []string{"city"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertBatch(regionRows(rand.New(rand.NewSource(4)), 300, "r"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "r_city_age", Table: "regions", Columns: []string{"city", "age"}}, nil); err != nil {
		t.Fatal(err)
	}
	s := &Store{tables: map[string]*Table{"regions": tbl}}
	want := renderStore(s)
	for _, ix := range tbl.Indexes() {
		for it := ix.Tree().Seek(nil); it.Valid(); it.Next() {
			k := it.Key()
			if cap(k) != len(k) {
				t.Fatalf("%s: key cap %d len %d", ix.Def.Name, cap(k), len(k))
			}
			if _, ok := tbl.GetByPK(oraclePK(t, ix, k), nil); !ok {
				t.Fatalf("%s: entry %x leads to no row", ix.Def.Name, k)
			}
			_ = append(k, 0xEE, 0xEE)
			_ = append(k[len(k)-len(oraclePK(t, ix, k)):], 0xEE)
		}
	}
	if renderStore(s) != want {
		t.Fatal("appending to a key wrote into its neighbour")
	}
}

// TestPrepareIndexAllocsPerEntry pins the bulk build's allocations: the slab,
// its offsets and the tree's nodes, and nothing per entry.
func TestPrepareIndexAllocsPerEntry(t *testing.T) {
	const rows = 20_000
	tbl := benchFixtureSized(t, rows).Table("events")
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := tbl.PrepareIndex(benchBuildDef, nil); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / rows; per > maxBuildAllocsPerEntry {
		t.Fatalf("PrepareIndex makes %.3f allocations per entry, want <= %.1f", per, maxBuildAllocsPerEntry)
	}
}

func TestInsertBatchSortedFastPath(t *testing.T) {
	mk := func() *Table { return newUsersTable(t) }
	rows := make([]sqltypes.Row, 2000)
	for i := range rows {
		rows[i] = userRow(int64(i), fmt.Sprintf("u%d", i), int64(i%70), fmt.Sprintf("c%d", i%9))
	}

	batched := mk()
	var bm Metrics
	if err := batched.InsertBatch(rows, &bm); err != nil {
		t.Fatal(err)
	}
	serial := mk()
	for _, row := range rows {
		if err := serial.Insert(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	if batched.RowCount() != serial.RowCount() || batched.DataSize() != serial.DataSize() {
		t.Fatalf("batch: rows=%d bytes=%d, serial: rows=%d bytes=%d",
			batched.RowCount(), batched.DataSize(), serial.RowCount(), serial.DataSize())
	}
	ia, ib := batched.Data().Seek(nil), serial.Data().Seek(nil)
	for ib.Valid() {
		if !ia.Valid() || string(ia.Key()) != string(ib.Key()) {
			t.Fatal("batched clustered tree diverged")
		}
		ia.Next()
		ib.Next()
	}
	if err := batched.Data().Validate(); err != nil {
		t.Fatal(err)
	}
	if bm.RowWrites != 2000 {
		t.Fatalf("RowWrites = %d", bm.RowWrites)
	}
	// The bulk path must charge far fewer page writes than one descent per
	// row.
	if bm.PageReads >= 2000 {
		t.Fatalf("bulk path charged %d page reads", bm.PageReads)
	}

	// A second sorted batch appends onto the non-empty table.
	more := make([]sqltypes.Row, 500)
	for i := range more {
		more[i] = userRow(int64(2000+i), "x", 1, "c")
	}
	if err := batched.InsertBatch(more, nil); err != nil {
		t.Fatal(err)
	}
	if batched.RowCount() != 2500 {
		t.Fatalf("RowCount = %d", batched.RowCount())
	}
	if err := batched.Data().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchMaintainsIndexes(t *testing.T) {
	tbl := newUsersTable(t)
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "by_city", Table: "users", Columns: []string{"city"}}, nil); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqltypes.Row, 1000)
	for i := range rows {
		rows[i] = userRow(int64(i), "u", int64(i%50), fmt.Sprintf("c%02d", i%17))
	}
	if err := tbl.InsertBatch(rows, nil); err != nil {
		t.Fatal(err)
	}
	ix := tbl.Index("by_city")
	if ix.Len() != 1000 {
		t.Fatalf("index len = %d", ix.Len())
	}
	if err := ix.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchUnsortedFallback(t *testing.T) {
	tbl := newUsersTable(t)
	rows := []sqltypes.Row{
		userRow(5, "e", 5, "c"),
		userRow(1, "a", 1, "c"),
		userRow(3, "c", 3, "c"),
	}
	if err := tbl.InsertBatch(rows, nil); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 3 {
		t.Fatalf("RowCount = %d", tbl.RowCount())
	}
	if err := tbl.Data().Validate(); err != nil {
		t.Fatal(err)
	}
	// Duplicates within an unsorted batch fail at the offending row.
	if err := tbl.InsertBatch([]sqltypes.Row{userRow(10, "x", 1, "c"), userRow(5, "dup", 1, "c")}, nil); err == nil {
		t.Fatal("duplicate accepted")
	}
	// A sorted batch overlapping existing keys routes to the fallback and
	// fails cleanly too.
	if err := tbl.InsertBatch([]sqltypes.Row{userRow(3, "dup", 1, "c"), userRow(20, "y", 1, "c")}, nil); err == nil {
		t.Fatal("overlapping duplicate accepted")
	}
}

func TestInsertBatchIsolatedFromCaller(t *testing.T) {
	tbl := newUsersTable(t)
	rows := []sqltypes.Row{userRow(1, "ann", 30, "sf")}
	if err := tbl.InsertBatch(rows, nil); err != nil {
		t.Fatal(err)
	}
	rows[0][1] = sqltypes.NewString("mutated")
	got, _ := tbl.GetByPK(tbl.PKKey(userRow(1, "", 0, "")), nil)
	if got[1].Str() != "ann" {
		t.Fatal("stored row aliases caller's slice")
	}
}
