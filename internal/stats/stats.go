// Package stats builds and serves data-distribution statistics: per-column
// NDV, min/max, null fraction and equi-depth histograms. The optimizer uses
// them for selectivity estimation, and hypothetical ("dataless") indexes are
// costed purely from these statistics — the optimizer never needs the index
// to be materialized, mirroring the what-if indexes of §III-A4.
package stats

import (
	"sort"

	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// DefaultBuckets is the histogram resolution used when sampling tables.
const DefaultBuckets = 32

// Bucket is one equi-depth histogram bucket: Count values are <= Upper and
// greater than the previous bucket's Upper.
type Bucket struct {
	Upper    sqltypes.Value
	Count    int64
	Distinct int64
}

// ColumnStats summarizes one column's distribution.
type ColumnStats struct {
	Count     int64 // non-sampled total row count the stats were scaled to
	NullCount int64
	NDV       int64
	Min, Max  sqltypes.Value
	Buckets   []Bucket
}

// BuildColumnStats computes statistics over the given values, scaled to
// totalRows (values may be a sample).
func BuildColumnStats(values []sqltypes.Value, totalRows int64, buckets int) *ColumnStats {
	cs := &ColumnStats{Count: totalRows}
	if len(values) == 0 {
		return cs
	}
	nonNull := make([]sqltypes.Value, 0, len(values))
	nulls := 0
	for _, v := range values {
		if v.IsNull() {
			nulls++
		} else {
			nonNull = append(nonNull, v)
		}
	}
	scale := float64(totalRows) / float64(len(values))
	cs.NullCount = int64(float64(nulls) * scale)
	if len(nonNull) == 0 {
		return cs
	}
	sort.Slice(nonNull, func(i, j int) bool { return sqltypes.Compare(nonNull[i], nonNull[j]) < 0 })
	cs.Min, cs.Max = nonNull[0], nonNull[len(nonNull)-1]

	distinct := int64(1)
	for i := 1; i < len(nonNull); i++ {
		if sqltypes.Compare(nonNull[i-1], nonNull[i]) != 0 {
			distinct++
		}
	}
	// Scale NDV conservatively: sampled distinct counts undercount, but for
	// the synthetic data here a linear cap works well.
	cs.NDV = distinct
	if scale > 1 {
		scaled := int64(float64(distinct) * scale)
		if scaled > totalRows {
			scaled = totalRows
		}
		// Low-cardinality columns saturate: if the sample's NDV is far below
		// the sample size, assume the population NDV is close to the sample's.
		if float64(distinct) < 0.1*float64(len(nonNull)) {
			scaled = distinct
		}
		cs.NDV = scaled
	}

	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	per := (len(nonNull) + buckets - 1) / buckets
	if per == 0 {
		per = 1
	}
	for start := 0; start < len(nonNull); {
		end := start + per
		if end > len(nonNull) {
			end = len(nonNull)
		}
		// Extend to include all duplicates of the boundary value so bucket
		// upper bounds are distinct.
		for end < len(nonNull) && sqltypes.Compare(nonNull[end-1], nonNull[end]) == 0 {
			end++
		}
		d := int64(1)
		for i := start + 1; i < end; i++ {
			if sqltypes.Compare(nonNull[i-1], nonNull[i]) != 0 {
				d++
			}
		}
		cs.Buckets = append(cs.Buckets, Bucket{
			Upper:    nonNull[end-1],
			Count:    int64(float64(end-start) * scale),
			Distinct: d,
		})
		start = end
	}
	return cs
}

// nonNullCount returns the scaled count of non-null values.
func (cs *ColumnStats) nonNullCount() int64 {
	n := cs.Count - cs.NullCount
	if n < 0 {
		return 0
	}
	return n
}

// SelectivityEq estimates the fraction of all rows with column = v.
func (cs *ColumnStats) SelectivityEq(v sqltypes.Value) float64 {
	if cs.Count == 0 {
		return 0
	}
	if v.IsNull() {
		// col = NULL matches nothing in SQL; <=> NULL matches nulls. Use
		// SelectivityIsNull for the latter.
		return 0
	}
	if cs.NDV == 0 {
		return 0
	}
	frac := float64(cs.nonNullCount()) / float64(cs.Count) / float64(cs.NDV)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// SelectivityIsNull estimates the fraction of rows with column IS NULL.
func (cs *ColumnStats) SelectivityIsNull() float64 {
	if cs.Count == 0 {
		return 0
	}
	return float64(cs.NullCount) / float64(cs.Count)
}

// SelectivityRange estimates the fraction of rows with lo <(=) col <(=) hi.
// Either bound may be the zero Value (NULL) to mean unbounded.
func (cs *ColumnStats) SelectivityRange(lo, hi sqltypes.Value, loInc, hiInc bool) float64 {
	if cs.Count == 0 || len(cs.Buckets) == 0 {
		return 0.3 // default guess with no histogram
	}
	total := cs.nonNullCount()
	if total == 0 {
		return 0
	}
	var matched float64
	prevUpper := cs.Min
	first := true
	for _, b := range cs.Buckets {
		bLo, bHi := prevUpper, b.Upper
		frac := bucketOverlap(bLo, bHi, first, lo, hi, loInc, hiInc)
		matched += frac * float64(b.Count)
		prevUpper = b.Upper
		first = false
	}
	sel := matched / float64(cs.Count)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// bucketOverlap estimates what fraction of a bucket covering (bLo, bHi]
// (inclusive of bLo when first) intersects the query range.
func bucketOverlap(bLo, bHi sqltypes.Value, first bool, lo, hi sqltypes.Value, loInc, hiInc bool) float64 {
	// Entirely below the lower bound?
	if !lo.IsNull() {
		c := sqltypes.Compare(bHi, lo)
		if c < 0 || (c == 0 && !loInc) {
			return 0
		}
	}
	// Entirely above the upper bound?
	if !hi.IsNull() {
		c := sqltypes.Compare(bLo, hi)
		if c > 0 || (c == 0 && !hiInc && !first) {
			return 0
		}
	}
	// Fully contained?
	loOK := lo.IsNull() || sqltypes.Compare(bLo, lo) >= 0
	hiOK := hi.IsNull() || sqltypes.Compare(bHi, hi) <= 0
	if loOK && hiOK {
		return 1
	}
	// Partial overlap: interpolate numerically when possible, otherwise 0.5.
	if bLo.IsNumeric() && bHi.IsNumeric() {
		span := bHi.Float() - bLo.Float()
		if span <= 0 {
			return 0.5
		}
		from, to := bLo.Float(), bHi.Float()
		if !lo.IsNull() && lo.IsNumeric() && lo.Float() > from {
			from = lo.Float()
		}
		if !hi.IsNull() && hi.IsNumeric() && hi.Float() < to {
			to = hi.Float()
		}
		if to <= from {
			// Degenerate but non-empty (e.g. equality at boundary).
			return 1 / (1 + span)
		}
		return (to - from) / span
	}
	return 0.5
}

// TableStats summarizes a table: row count and per-column statistics.
type TableStats struct {
	RowCount   int64
	AvgRowSize float64
	Columns    map[string]*ColumnStats // by lower-cased column name
}

// Column returns the named column's stats, or nil.
func (ts *TableStats) Column(name string) *ColumnStats {
	return ts.Columns[lower(name)]
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// Collect builds statistics for a table by scanning up to sampleLimit rows
// (0 = scan everything). Sampling keeps ANALYZE cheap on large tables while
// remaining accurate enough for selectivity estimation.
func Collect(t *storage.Table, sampleLimit int) *TableStats {
	total := int64(t.RowCount())
	ts := &TableStats{RowCount: total, Columns: map[string]*ColumnStats{}}
	if total == 0 {
		for _, c := range t.Def.Columns {
			ts.Columns[lower(c.Name)] = &ColumnStats{}
		}
		return ts
	}
	cols := make([][]sqltypes.Value, len(t.Def.Columns))
	var bytes int64
	sampled := 0
	take := func(row sqltypes.Row) {
		for c := range cols {
			cols[c] = append(cols[c], row[c])
		}
		bytes += int64(row.Size())
		sampled++
	}
	if sampleLimit <= 0 || int(total) <= sampleLimit {
		for it := t.Data().Seek(nil); it.Valid(); it.Next() {
			take(it.Value())
		}
	} else {
		// Page-stride sampling: pick whole leaf pages by a deterministic hash
		// of the page position (systematic every-Nth selection aliases badly
		// with periodic data) and skip unselected pages wholesale, so a
		// capped ANALYZE reads ~sampleLimit rows' worth of pages instead of
		// walking every entry in the table.
		leaves := t.Data().Leaves()
		rowsPerLeaf := (int(total) + leaves - 1) / leaves
		target := (sampleLimit + rowsPerLeaf - 1) / rowsPerLeaf
		if target < 1 {
			target = 1
		}
		if target > leaves {
			target = leaves
		}
		page := 0
		for it := t.Data().Seek(nil); it.Valid(); page++ {
			h := (uint64(page)*2654435761 + 0x9e3779b9) % uint64(leaves)
			if h >= uint64(target) {
				it.SkipLeaf()
				continue
			}
			for n := it.LeafLen(); n > 0 && it.Valid(); n-- {
				take(it.Value())
				it.Next()
			}
		}
	}
	if sampled > 0 {
		ts.AvgRowSize = float64(bytes) / float64(sampled)
	}
	for c, def := range t.Def.Columns {
		ts.Columns[lower(def.Name)] = BuildColumnStats(cols[c], total, DefaultBuckets)
	}
	return ts
}
