package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"aim/internal/catalog"
	"aim/internal/sqltypes"
)

// oraclePK derives the clustered key an index entry points at the long way,
// independent of Index.PK: decode every index and primary-key value of the
// entry, then re-encode the primary-key values.
func oraclePK(t testing.TB, ix *Index, entry []byte) []byte {
	t.Helper()
	n := len(ix.ordinals) + len(ix.pkOrds)
	vals, rest, err := sqltypes.DecodeKey(entry, n)
	if err != nil || len(rest) != 0 {
		t.Fatalf("index %s: entry %x is not %d encoded values: %v", ix.Def.Name, entry, n, err)
	}
	return sqltypes.EncodeKey(nil, vals[len(ix.ordinals):]...)
}

// oracleEntry encodes the entry key ix holds for row value by value,
// independent of entryKey.
func oracleEntry(ix *Index, row sqltypes.Row) []byte {
	var vals []sqltypes.Value
	for _, o := range append(append([]int(nil), ix.ordinals...), ix.pkOrds...) {
		vals = append(vals, row[o])
	}
	return sqltypes.EncodeKey(nil, vals...)
}

func newUsersTable(t *testing.T) *Table {
	t.Helper()
	def, err := catalog.NewTable("users", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "name", Type: sqltypes.KindString},
		{Name: "age", Type: sqltypes.KindInt},
		{Name: "city", Type: sqltypes.KindString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(def)
}

func userRow(id int64, name string, age int64, city string) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewString(name), sqltypes.NewInt(age), sqltypes.NewString(city)}
}

func TestInsertAndGet(t *testing.T) {
	tbl := newUsersTable(t)
	var m Metrics
	if err := tbl.Insert(userRow(1, "ann", 30, "sf"), &m); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(userRow(1, "dup", 1, "x"), &m); err == nil {
		t.Fatal("duplicate pk accepted")
	}
	if err := tbl.Insert(sqltypes.Row{sqltypes.NewInt(2)}, &m); err == nil {
		t.Fatal("short row accepted")
	}
	row, ok := tbl.GetByPK(tbl.PKKey(userRow(1, "", 0, "")), &m)
	if !ok || row[1].Str() != "ann" {
		t.Fatalf("GetByPK = %v, %v", row, ok)
	}
	if m.RowWrites != 1 || m.RowsRead != 1 || m.PageReads == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestInsertIsolatedFromCaller(t *testing.T) {
	tbl := newUsersTable(t)
	row := userRow(1, "ann", 30, "sf")
	if err := tbl.Insert(row, nil); err != nil {
		t.Fatal(err)
	}
	row[1] = sqltypes.NewString("mutated")
	got, _ := tbl.GetByPK(tbl.PKKey(userRow(1, "", 0, "")), nil)
	if got[1].Str() != "ann" {
		t.Fatal("stored row aliases caller's slice")
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	tbl := newUsersTable(t)
	for i := int64(0); i < 100; i++ {
		city := "sf"
		if i%3 == 0 {
			city = "nyc"
		}
		if err := tbl.Insert(userRow(i, "u", i%10, city), nil); err != nil {
			t.Fatal(err)
		}
	}
	var m Metrics
	ix, err := tbl.BuildIndex(&catalog.Index{Name: "by_city_age", Table: "users", Columns: []string{"city", "age"}}, &m)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 100 {
		t.Fatalf("index has %d entries", ix.Len())
	}
	if m.IndexWrites != 100 || m.RowsRead != 100 {
		t.Errorf("build metrics = %+v", m)
	}
	// Insert maintains the index.
	if err := tbl.Insert(userRow(200, "x", 5, "la"), nil); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 101 {
		t.Fatal("insert did not maintain index")
	}
	// Delete maintains the index.
	if !tbl.DeleteByPK(tbl.PKKey(userRow(200, "", 0, "")), nil) {
		t.Fatal("delete failed")
	}
	if ix.Len() != 100 {
		t.Fatal("delete did not maintain index")
	}
	// Update rewrites only changed entries.
	key := tbl.PKKey(userRow(1, "", 0, ""))
	row, _ := tbl.GetByPK(key, nil)
	updated := row.Clone()
	updated[3] = sqltypes.NewString("tokyo")
	if err := tbl.Update(key, updated, nil); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 100 {
		t.Fatal("update broke index size")
	}
	// The new entry must be findable by a range scan over city='tokyo'.
	lo := sqltypes.EncodeKey(nil, sqltypes.NewString("tokyo"))
	found := 0
	for it := ix.Tree().Seek(lo); it.Valid(); it.Next() {
		k := it.Key()
		if len(k) < len(lo) || string(k[:len(lo)]) != string(lo) {
			break
		}
		found++
	}
	if found != 1 {
		t.Fatalf("tokyo entries = %d", found)
	}
}

func TestUpdateChangesPrimaryKey(t *testing.T) {
	tbl := newUsersTable(t)
	if err := tbl.Insert(userRow(1, "a", 10, "sf"), nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(userRow(2, "b", 20, "sf"), nil); err != nil {
		t.Fatal(err)
	}
	key1 := tbl.PKKey(userRow(1, "", 0, ""))
	// Moving row 1 onto pk 2 must fail.
	if err := tbl.Update(key1, userRow(2, "a", 10, "sf"), nil); err == nil {
		t.Fatal("pk collision on update accepted")
	}
	// Moving to a fresh pk works.
	if err := tbl.Update(key1, userRow(3, "a", 10, "sf"), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.GetByPK(key1, nil); ok {
		t.Fatal("old pk still present")
	}
	if _, ok := tbl.GetByPK(tbl.PKKey(userRow(3, "", 0, "")), nil); !ok {
		t.Fatal("new pk missing")
	}
	if tbl.RowCount() != 2 {
		t.Fatalf("row count = %d", tbl.RowCount())
	}
}

// TestIndexConsistencyUnderRandomDML is the core storage invariant: after
// arbitrary interleaved inserts/updates/deletes, every index must contain
// exactly one entry per row, each pointing to the right primary key.
func TestIndexConsistencyUnderRandomDML(t *testing.T) {
	tbl := newUsersTable(t)
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "i_age", Table: "users", Columns: []string{"age"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "i_city_name", Table: "users", Columns: []string{"city", "name"}}, nil); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	live := map[int64]sqltypes.Row{}
	for op := 0; op < 5000; op++ {
		id := int64(r.Intn(500))
		switch r.Intn(3) {
		case 0:
			row := userRow(id, randWord(r), int64(r.Intn(50)), randWord(r))
			err := tbl.Insert(row, nil)
			if _, exists := live[id]; exists {
				if err == nil {
					t.Fatal("duplicate insert accepted")
				}
			} else if err != nil {
				t.Fatal(err)
			} else {
				live[id] = row
			}
		case 1:
			if _, exists := live[id]; !exists {
				continue
			}
			row := userRow(id, randWord(r), int64(r.Intn(50)), randWord(r))
			if err := tbl.Update(tbl.PKKey(row), row, nil); err != nil {
				t.Fatal(err)
			}
			live[id] = row
		case 2:
			ok := tbl.DeleteByPK(tbl.PKKey(userRow(id, "", 0, "")), nil)
			_, exists := live[id]
			if ok != exists {
				t.Fatalf("delete(%d) = %v, live = %v", id, ok, exists)
			}
			delete(live, id)
		}
	}
	if tbl.RowCount() != len(live) {
		t.Fatalf("row count %d != live %d", tbl.RowCount(), len(live))
	}
	for _, ix := range tbl.Indexes() {
		if ix.Len() != len(live) {
			t.Fatalf("index %s has %d entries, want %d", ix.Def.Name, ix.Len(), len(live))
		}
		for it := ix.Tree().Seek(nil); it.Valid(); it.Next() {
			row, ok := tbl.GetByPK(oraclePK(t, ix, it.Key()), nil)
			if !ok {
				t.Fatalf("index %s has dangling entry", ix.Def.Name)
			}
			// The index key prefix must match the row's column values.
			want := oracleEntry(ix, row)
			if string(want) != string(it.Key()) {
				t.Fatalf("index %s entry key mismatch for pk row %v", ix.Def.Name, row)
			}
		}
	}
}

func randWord(r *rand.Rand) string {
	words := []string{"sf", "nyc", "la", "tokyo", "paris", "berlin", "lima", "oslo"}
	return words[r.Intn(len(words))]
}

func TestSizeAccounting(t *testing.T) {
	tbl := newUsersTable(t)
	if tbl.DataSize() != 0 {
		t.Fatal("empty table has size")
	}
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(userRow(i, "abc", i, "sf"), nil); err != nil {
			t.Fatal(err)
		}
	}
	size := tbl.DataSize()
	if size <= 0 {
		t.Fatal("size not positive")
	}
	ix, err := tbl.BuildIndex(&catalog.Index{Name: "i", Table: "users", Columns: []string{"age"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.SizeBytes() <= 0 {
		t.Fatal("index size not positive")
	}
	before := ix.SizeBytes()
	if err := tbl.Insert(userRow(99, "abc", 9, "sf"), nil); err != nil {
		t.Fatal(err)
	}
	if ix.SizeBytes() <= before {
		t.Fatal("insert did not grow index size")
	}
	tbl.DeleteByPK(tbl.PKKey(userRow(99, "", 0, "")), nil)
	if ix.SizeBytes() != before {
		t.Fatal("delete did not restore index size")
	}
}

func TestStoreCloneIsolation(t *testing.T) {
	s := NewStore()
	def, _ := catalog.NewTable("t", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindInt},
	}, []string{"id"})
	tbl, err := s.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(def); err == nil {
		t.Fatal("duplicate table accepted")
	}
	for i := int64(0); i < 50; i++ {
		tbl.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i * 2)}, nil)
	}
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "iv", Table: "t", Columns: []string{"v"}}, nil); err != nil {
		t.Fatal(err)
	}
	clone := s.Clone()
	ct := clone.Table("t")
	if ct.RowCount() != 50 || ct.Index("iv") == nil {
		t.Fatal("clone incomplete")
	}
	// Mutating the clone must not affect the original.
	ct.Insert(sqltypes.Row{sqltypes.NewInt(999), sqltypes.NewInt(0)}, nil)
	ct.DeleteByPK(ct.PKKey(sqltypes.Row{sqltypes.NewInt(1), sqltypes.Null}), nil)
	if tbl.RowCount() != 50 {
		t.Fatal("clone mutation leaked")
	}
	if tbl.Index("iv").Len() != 50 {
		t.Fatal("clone index mutation leaked")
	}
	if s.TotalIndexBytes() <= 0 {
		t.Fatal("TotalIndexBytes")
	}
}

func TestDropIndex(t *testing.T) {
	tbl := newUsersTable(t)
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "i", Table: "users", Columns: []string{"age"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "i", Table: "users", Columns: []string{"age"}}, nil); err == nil {
		t.Fatal("duplicate build accepted")
	}
	if !tbl.DropIndex("I") {
		t.Fatal("drop failed")
	}
	if tbl.DropIndex("i") {
		t.Fatal("double drop succeeded")
	}
	// After a drop, inserts must not touch the old index.
	if err := tbl.Insert(userRow(1, "a", 1, "b"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIndexUnknownColumn(t *testing.T) {
	tbl := newUsersTable(t)
	if _, err := tbl.BuildIndex(&catalog.Index{Name: "bad", Table: "users", Columns: []string{"nope"}}, nil); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestInsertAllocsPerIndexEntry pins what one index entry costs Insert: the
// key is encoded on the stack and copied into its leaf's key block, so only a
// share of the key-block growth and splits the tree amortizes over many
// inserts is left (0.32 in all; 1.12 when every key was an allocation of its
// own). The entry stores no value, so a boxed one would add a whole
// allocation per entry and fail it, as would a key buffer or a descent path
// that left the stack.
func TestInsertAllocsPerIndexEntry(t *testing.T) {
	const batch = 100
	insertAllocs := func(indexes ...[]string) float64 {
		tbl := newUsersTable(t)
		for i, cols := range indexes {
			if _, err := tbl.BuildIndex(&catalog.Index{Name: fmt.Sprintf("i%d", i), Table: "users", Columns: cols}, nil); err != nil {
				t.Fatal(err)
			}
		}
		r := rand.New(rand.NewSource(5))
		rows := make([]sqltypes.Row, batch*41) // AllocsPerRun adds a warm-up run
		for i := range rows {
			rows[i] = userRow(int64(i), "n", int64(r.Intn(90)), randWord(r))
		}
		return testing.AllocsPerRun(40, func() {
			for _, row := range rows[:batch] {
				if err := tbl.Insert(row, nil); err != nil {
					t.Fatal(err)
				}
			}
			rows = rows[batch:]
		}) / batch
	}
	bare := insertAllocs()
	indexed := insertAllocs([]string{"age"}, []string{"city"}, []string{"city", "age"})
	per := (indexed - bare) / 3
	t.Logf("%.2f allocations per index entry", per)
	if per > 0.45 {
		t.Fatalf("Insert makes %.2f allocations per index entry (%.2f per row with three indexes, %.2f bare), want <= 0.45", per, indexed, bare)
	}
}
