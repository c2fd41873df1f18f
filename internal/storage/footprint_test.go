package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"aim/internal/catalog"
	"aim/internal/sqltypes"
)

// heapAfterGC is the live heap once two collections have run, the second
// finishing what the first's sweep left.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// eventsTable is an events-shaped table: five INT columns and one short
// STRING, keyed by id.
func eventsTable(t *testing.T) *Table {
	t.Helper()
	def, err := catalog.NewTable("events", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "user_id", Type: sqltypes.KindInt},
		{Name: "kind", Type: sqltypes.KindInt},
		{Name: "day", Type: sqltypes.KindInt},
		{Name: "score", Type: sqltypes.KindInt},
		{Name: "note", Type: sqltypes.KindString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(def)
}

// eventRows generates n events rows with ascending ids.
func eventRows(n int) []sqltypes.Row {
	r := rand.New(rand.NewSource(1))
	batch := make([]sqltypes.Row, n)
	for i := range batch {
		batch[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(r.Intn(20000))),
			sqltypes.NewInt(int64(r.Intn(8))), sqltypes.NewInt(int64(r.Intn(60))),
			sqltypes.NewInt(int64(r.Intn(1000))), sqltypes.NewString(fmt.Sprintf("n%d", r.Intn(1000))),
		}
	}
	return batch
}

// TestStoredRowFootprint measures the live heap per stored row of an
// events-shaped table bulk-loaded in key order: the clustered key, the row's
// six Values, the string's tagged bytes and the row's share of the tree
// nodes, whose keys point into the batch's key slab. The ceiling is the
// 211.8 B measured with 8-byte key heads plus 5 % headroom.
func TestStoredRowFootprint(t *testing.T) {
	const rows, ceiling = 20000, 223.0
	before := heapAfterGC()
	tbl := eventsTable(t)
	if err := tbl.InsertBatch(eventRows(rows), nil); err != nil {
		t.Fatal(err)
	}
	perRow := float64(heapAfterGC()-before) / rows
	runtime.KeepAlive(tbl)
	t.Logf("%.1f B of live heap per stored row", perRow)
	if tbl.RowCount() != rows || perRow > ceiling {
		t.Fatalf("%d rows hold %.1f B of live heap each, want <= %.0f", tbl.RowCount(), perRow, ceiling)
	}
}

// TestAppendedRowFootprint measures the same rows inserted one at a time in
// ascending key order, as INSERTs with fresh ids arrive: every split leaves a
// left leaf that never takes another insert, so a split that kept the left
// half as a reslice of the pre-split array would pin about twice its size.
// The ceiling is the 202.0 B measured with exact-size halves, key bytes
// included, plus 5 % headroom (resliced halves measured 276.6 B when every
// key was an allocation of its own).
func TestAppendedRowFootprint(t *testing.T) {
	const rows, ceiling = 20000, 213.0
	batch := eventRows(rows)
	before := heapAfterGC()
	tbl := eventsTable(t)
	for _, row := range batch {
		if err := tbl.Insert(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	perRow := float64(heapAfterGC()-before) / rows
	runtime.KeepAlive(tbl)
	runtime.KeepAlive(batch)
	t.Logf("%.1f B of live heap per appended row", perRow)
	if tbl.RowCount() != rows || perRow > ceiling {
		t.Fatalf("%d rows hold %.1f B of live heap each, want <= %.0f", tbl.RowCount(), perRow, ceiling)
	}
}

// TestDeletedRowsAreReleased deletes nine rows in ten, each leaf's from its
// last key down, and measures the live heap per row left: a delete that only
// shortened the slice would leave every deleted row referenced from the
// leaf's array beyond its length until the leaf emptied. The ceiling is the
// 740.3 B measured with cleared slots plus 5 % headroom; a deleted key's
// bytes stay in its leaf's key block until the block next moves.
func TestDeletedRowsAreReleased(t *testing.T) {
	const rows, ceiling = 20000, 778.0
	before := heapAfterGC()
	tbl := eventsTable(t)
	for _, row := range eventRows(rows) {
		if err := tbl.Insert(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	for id := rows - 1; id >= 0; id-- {
		if id%10 != 0 && !tbl.DeleteByPK(tbl.PKKey(sqltypes.Row{sqltypes.NewInt(int64(id))}), nil) {
			t.Fatalf("row %d was not deleted", id)
		}
	}
	perRow := float64(heapAfterGC()-before) / (rows / 10)
	runtime.KeepAlive(tbl)
	t.Logf("%.1f B of live heap per row left", perRow)
	if tbl.RowCount() != rows/10 || perRow > ceiling {
		t.Fatalf("%d rows left hold %.1f B of live heap each, want <= %.0f", tbl.RowCount(), perRow, ceiling)
	}
}
