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

// TestStoredRowFootprint measures the live heap per stored row of an
// events-shaped table (five INT columns and one short STRING, bulk-loaded in
// key order): the clustered key, the row's six Values, the string's tagged
// bytes and the row's share of the tree nodes. The ceiling is the 225.9 B
// measured with 24-byte Values plus 5 % headroom.
func TestStoredRowFootprint(t *testing.T) {
	const rows, ceiling = 20000, 237.0
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
	before := heapAfterGC()
	tbl := NewTable(def)
	load := func() error {
		r := rand.New(rand.NewSource(1))
		batch := make([]sqltypes.Row, rows)
		for i := range batch {
			batch[i] = sqltypes.Row{
				sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(r.Intn(20000))),
				sqltypes.NewInt(int64(r.Intn(8))), sqltypes.NewInt(int64(r.Intn(60))),
				sqltypes.NewInt(int64(r.Intn(1000))), sqltypes.NewString(fmt.Sprintf("n%d", r.Intn(1000))),
			}
		}
		return tbl.InsertBatch(batch, nil)
	}
	if err := load(); err != nil {
		t.Fatal(err)
	}
	perRow := float64(heapAfterGC()-before) / rows
	runtime.KeepAlive(tbl)
	t.Logf("%.1f B of live heap per stored row", perRow)
	if tbl.RowCount() != rows || perRow > ceiling {
		t.Fatalf("%d rows hold %.1f B of live heap each, want <= %.0f", tbl.RowCount(), perRow, ceiling)
	}
}
