package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aim/internal/catalog"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

func intVals(vals ...int64) []sqltypes.Value {
	out := make([]sqltypes.Value, len(vals))
	for i, v := range vals {
		out[i] = sqltypes.NewInt(v)
	}
	return out
}

func TestBuildColumnStatsBasics(t *testing.T) {
	vals := intVals(1, 2, 2, 3, 3, 3, 4, 5)
	cs := BuildColumnStats(vals, 8, 4)
	if cs.Count != 8 || cs.NullCount != 0 {
		t.Errorf("count=%d nulls=%d", cs.Count, cs.NullCount)
	}
	if cs.NDV != 5 {
		t.Errorf("NDV = %d, want 5", cs.NDV)
	}
	if cs.Min.Int() != 1 || cs.Max.Int() != 5 {
		t.Errorf("min/max = %v/%v", cs.Min, cs.Max)
	}
	var total int64
	for _, b := range cs.Buckets {
		total += b.Count
	}
	if total != 8 {
		t.Errorf("bucket counts sum to %d", total)
	}
}

func TestBuildColumnStatsNulls(t *testing.T) {
	vals := append(intVals(1, 2, 3), sqltypes.Null, sqltypes.Null)
	cs := BuildColumnStats(vals, 5, 4)
	if cs.NullCount != 2 {
		t.Errorf("nulls = %d", cs.NullCount)
	}
	if got := cs.SelectivityIsNull(); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("null selectivity = %v", got)
	}
	if cs.SelectivityEq(sqltypes.Null) != 0 {
		t.Error("= NULL should be 0")
	}
}

func TestBuildColumnStatsEmpty(t *testing.T) {
	cs := BuildColumnStats(nil, 0, 4)
	if cs.SelectivityEq(sqltypes.NewInt(1)) != 0 {
		t.Error("empty eq selectivity")
	}
	if cs.SelectivityIsNull() != 0 {
		t.Error("empty null selectivity")
	}
}

func TestSelectivityEqUniform(t *testing.T) {
	var vals []sqltypes.Value
	for i := 0; i < 1000; i++ {
		vals = append(vals, sqltypes.NewInt(int64(i%100)))
	}
	cs := BuildColumnStats(vals, 1000, 16)
	got := cs.SelectivityEq(sqltypes.NewInt(5))
	if math.Abs(got-0.01) > 0.005 {
		t.Errorf("eq selectivity = %v, want ~0.01", got)
	}
}

func TestSelectivityRangeUniform(t *testing.T) {
	var vals []sqltypes.Value
	for i := 0; i < 10000; i++ {
		vals = append(vals, sqltypes.NewInt(int64(i)))
	}
	cs := BuildColumnStats(vals, 10000, 32)
	cases := []struct {
		lo, hi   sqltypes.Value
		loI, hiI bool
		want     float64
		tol      float64
	}{
		{sqltypes.NewInt(0), sqltypes.NewInt(999), true, true, 0.1, 0.03},
		{sqltypes.NewInt(5000), sqltypes.Null, false, false, 0.5, 0.05},
		{sqltypes.Null, sqltypes.NewInt(2500), false, true, 0.25, 0.05},
		{sqltypes.NewInt(2000), sqltypes.NewInt(8000), true, true, 0.6, 0.05},
	}
	for _, c := range cases {
		got := cs.SelectivityRange(c.lo, c.hi, c.loI, c.hiI)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("range(%v,%v) = %v, want ~%v", c.lo, c.hi, got, c.want)
		}
	}
}

func TestSelectivityRangeSkewed(t *testing.T) {
	// 90% of values are 0; range (0, inf) should be ~0.1.
	var vals []sqltypes.Value
	for i := 0; i < 1000; i++ {
		if i < 900 {
			vals = append(vals, sqltypes.NewInt(0))
		} else {
			vals = append(vals, sqltypes.NewInt(int64(i)))
		}
	}
	cs := BuildColumnStats(vals, 1000, 16)
	got := cs.SelectivityRange(sqltypes.NewInt(0), sqltypes.Null, false, false)
	if got > 0.25 {
		t.Errorf("skewed range selectivity = %v, want ~0.1", got)
	}
}

func TestSelectivityRangeStrings(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.NewString("apple"), sqltypes.NewString("banana"),
		sqltypes.NewString("cherry"), sqltypes.NewString("date"),
	}
	cs := BuildColumnStats(vals, 4, 4)
	got := cs.SelectivityRange(sqltypes.NewString("b"), sqltypes.NewString("c"), true, false)
	if got <= 0 || got > 1 {
		t.Errorf("string range selectivity = %v", got)
	}
}

func TestCollectFromTable(t *testing.T) {
	def, _ := catalog.NewTable("t", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "grp", Type: sqltypes.KindInt},
		{Name: "val", Type: sqltypes.KindFloat},
	}, []string{"id"})
	tbl := storage.NewTable(def)
	r := rand.New(rand.NewSource(1))
	for i := int64(0); i < 2000; i++ {
		tbl.Insert(sqltypes.Row{
			sqltypes.NewInt(i),
			sqltypes.NewInt(i % 20),
			sqltypes.NewFloat(r.Float64() * 100),
		}, nil)
	}
	ts := Collect(tbl, 0)
	if ts.RowCount != 2000 {
		t.Fatalf("rows = %d", ts.RowCount)
	}
	if ts.AvgRowSize <= 0 {
		t.Error("avg row size")
	}
	if got := ts.Column("grp").NDV; got != 20 {
		t.Errorf("grp NDV = %d", got)
	}
	if got := ts.Column("id").NDV; got != 2000 {
		t.Errorf("id NDV = %d", got)
	}
	if ts.Column("missing") != nil {
		t.Error("missing column should be nil")
	}
}

func TestCollectSampled(t *testing.T) {
	def, _ := catalog.NewTable("t", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "grp", Type: sqltypes.KindInt},
	}, []string{"id"})
	tbl := storage.NewTable(def)
	for i := int64(0); i < 10000; i++ {
		tbl.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i % 10)}, nil)
	}
	ts := Collect(tbl, 500)
	if ts.RowCount != 10000 {
		t.Fatalf("rows = %d", ts.RowCount)
	}
	// Sampled low-cardinality NDV should stay near 10, not scale up.
	if got := ts.Column("grp").NDV; got < 5 || got > 30 {
		t.Errorf("sampled grp NDV = %d, want ~10", got)
	}
	// Unique column NDV should scale to near row count.
	if got := ts.Column("id").NDV; got < 5000 {
		t.Errorf("sampled id NDV = %d, want near 10000", got)
	}
}

func TestCollectEmptyTable(t *testing.T) {
	def, _ := catalog.NewTable("t", []catalog.Column{{Name: "id", Type: sqltypes.KindInt}}, []string{"id"})
	ts := Collect(storage.NewTable(def), 0)
	if ts.RowCount != 0 || ts.Column("id") == nil {
		t.Fatal("empty collect broken")
	}
}

func TestSelectivityMonotoneProperty(t *testing.T) {
	// Widening a range must never decrease selectivity.
	r := rand.New(rand.NewSource(2))
	var vals []sqltypes.Value
	for i := 0; i < 5000; i++ {
		vals = append(vals, sqltypes.NewInt(int64(r.NormFloat64()*100)))
	}
	cs := BuildColumnStats(vals, 5000, 32)
	for trial := 0; trial < 200; trial++ {
		lo := int64(r.Intn(400) - 200)
		width := int64(r.Intn(100))
		narrow := cs.SelectivityRange(sqltypes.NewInt(lo), sqltypes.NewInt(lo+width), true, true)
		wide := cs.SelectivityRange(sqltypes.NewInt(lo-10), sqltypes.NewInt(lo+width+10), true, true)
		if narrow > wide+1e-9 {
			t.Fatalf("widening decreased selectivity: narrow=%v wide=%v (lo=%d w=%d)", narrow, wide, lo, width)
		}
	}
}

// strideFixture builds a PK-ordered table large enough that a capped
// ANALYZE must take the page-stride path.
func strideFixture(t *testing.T, rows int64) *storage.Table {
	t.Helper()
	def, err := catalog.NewTable("t", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "grp", Type: sqltypes.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(def)
	for i := int64(0); i < rows; i++ {
		tbl.Insert(sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewInt(i % 7)}, nil)
	}
	return tbl
}

// sampleSize recovers how many rows Collect actually read, using the
// unscaled per-bucket distinct counts of a unique column: every sampled id
// is distinct, so the distinct counts sum to the sample size.
func sampleSize(ts *TableStats, col string) int64 {
	var n int64
	for _, b := range ts.Column(col).Buckets {
		n += b.Distinct
	}
	return n
}

func TestCollectPageStrideBoundsReads(t *testing.T) {
	tbl := strideFixture(t, 20000)
	const limit = 1000
	ts := Collect(tbl, limit)
	if ts.RowCount != 20000 {
		t.Fatalf("rows = %d", ts.RowCount)
	}
	got := sampleSize(ts, "id")
	// Page granularity rounds the sample up to whole leaves, so allow slack
	// above the limit — but nothing near a full scan, and not a degenerate
	// sliver either.
	if got < limit/4 || got > 3*limit {
		t.Errorf("sampled %d rows for limit %d", got, limit)
	}
}

func TestCollectPageStrideDeterministic(t *testing.T) {
	tbl := strideFixture(t, 20000)
	a := Collect(tbl, 1000)
	b := Collect(tbl, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated sampled Collect differs:\n%+v\nvs\n%+v", a, b)
	}
}

func TestCollectPageStrideCoverage(t *testing.T) {
	// The hash-selected pages must spread across the key space, not cluster
	// at the front: min/max of the sampled unique column should land near
	// the true extremes.
	tbl := strideFixture(t, 20000)
	ts := Collect(tbl, 1000)
	cs := ts.Column("id")
	if cs.Min.Int() > 4000 {
		t.Errorf("sampled min = %d, want near 0", cs.Min.Int())
	}
	if cs.Max.Int() < 16000 {
		t.Errorf("sampled max = %d, want near 19999", cs.Max.Int())
	}
	// Low-cardinality column must still see every group.
	if got := ts.Column("grp").NDV; got != 7 {
		t.Errorf("grp NDV = %d, want 7", got)
	}
}
