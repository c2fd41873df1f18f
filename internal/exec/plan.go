package exec

import (
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// KeySource supplies one index-key value: either a literal or a slot in the
// env buffer filled by an earlier join step (index nested-loop join).
type KeySource struct {
	Lit  sqltypes.Value
	Slot int // -1 = literal
}

// Resolve returns the concrete value for the current env row.
func (k KeySource) Resolve(env []sqltypes.Value) sqltypes.Value {
	if k.Slot >= 0 {
		return env[k.Slot]
	}
	return k.Lit
}

// Literal builds a literal key source.
func Literal(v sqltypes.Value) KeySource { return KeySource{Lit: v, Slot: -1} }

// SlotRef builds a key source reading a previously filled env slot.
func SlotRef(slot int) KeySource { return KeySource{Slot: slot} }

// RangeSpec bounds the index column following the equality prefix.
// Nil Lo/Hi means unbounded on that side.
type RangeSpec struct {
	Lo, Hi       *KeySource
	LoInc, HiInc bool
}

// Step accesses one table instance inside the join pipeline.
type Step struct {
	Instance  int    // FROM-instance ordinal this step fills
	IndexName string // "" = clustered primary key access
	// EqKeys bind the leading index (or PK) columns by equality.
	EqKeys []KeySource
	// Range optionally bounds the column right after the equality prefix.
	Range *RangeSpec
	// In enumerates values for the column right after the equality prefix
	// (multi-range read, MySQL-style IN handling). Mutually exclusive with
	// Range.
	In []KeySource
	// Covering executes an index-only read: the base row is never fetched
	// and only the index + PK columns of the instance are filled.
	Covering bool
	// ICP (index condition pushdown) is evaluated after filling only the
	// index and PK columns, before the base-row lookup.
	ICP CompiledExpr
	// Filter is the residual predicate evaluated once this instance (and
	// all earlier steps' instances) are filled.
	Filter CompiledExpr
	// ICPSrc/FilterSrc carry the source expressions behind ICP/Filter. The
	// batch driver compiles them into per-batch predicate kernels (their
	// placeholders read Plan.Params); when nil (plans assembled without the
	// optimizer) it falls back to evaluating the compiled closure row by row,
	// which is slower but identical.
	ICPSrc    sqlparser.Expr
	FilterSrc sqlparser.Expr
}

// AggFunc enumerates supported aggregates.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota // COUNT(*) when Arg == nil, else COUNT(expr)
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate computed per group.
type AggSpec struct {
	Func AggFunc
	Arg  CompiledExpr // nil for COUNT(*)
	// ArgCol is the env offset + 1 when Arg is a bare column reference
	// (0 = opaque or COUNT(*)). The batch driver reads the column directly
	// instead of calling Arg per row; both produce the same value.
	ArgCol int
}

// OutputSpec is one output column: either an aggregate result (Agg >= 0)
// or an expression evaluated over the env row (a group's representative row
// for grouped queries).
type OutputSpec struct {
	Agg  int // -1 when Expr is used
	Expr CompiledExpr
	// col is the env offset + 1 when the output is a bare column reference
	// (0 = opaque expression). The batch driver projects such outputs by
	// direct copy instead of calling Expr per row; both paths return the
	// same Value.
	col int
}

// ColOutput builds the output spec for a bare column reference at the given
// env offset. It sets both the direct-copy fast path and an equivalent
// closure, so the driver and the reference interpreter project identically.
func ColOutput(off int) OutputSpec {
	return OutputSpec{
		Agg: -1,
		col: off + 1,
		Expr: func(env []sqltypes.Value) (sqltypes.Value, error) {
			return env[off], nil
		},
	}
}

// OrderSpec sorts output rows by the given output column.
type OrderSpec struct {
	Col  int
	Desc bool
}

// Plan is a complete physical plan for a SELECT.
type Plan struct {
	Layout *Layout
	// Params is the parameter vector the plan's expressions were compiled
	// with (nil for a statement planned as written).
	Params  []sqltypes.Value
	Steps   []Step
	Grouped bool
	GroupBy []CompiledExpr
	// GroupByCols carries, per GroupBy entry, the env offset + 1 when the
	// grouping expression is a bare column reference (0 = opaque). When every
	// entry is a column (and every aggregate arg likewise), the batch driver
	// computes group keys by direct reads into a reused buffer instead of
	// calling the GroupBy closures row by row. Nil disables the fast path.
	GroupByCols []int
	// GroupOrdered marks that rows arrive in group order (the access path
	// sorts by the grouping columns), enabling cheap streaming aggregation.
	GroupOrdered bool
	Aggs         []AggSpec
	Output       []OutputSpec
	// HiddenTail output columns exist only for sorting and are trimmed from
	// the final result.
	HiddenTail int
	Distinct   bool
	OrderBy    []OrderSpec
	// OrderSatisfied marks that the access path already delivers rows in
	// the requested order, so no sort is performed.
	OrderSatisfied bool
	Limit          int64 // -1 = no limit
	Offset         int64

	// Optimizer annotations.
	EstimatedCost float64
	UsedIndexes   []string // index names the plan reads (not incl. clustered)
}

// Stats reports the physical work of one statement execution.
type Stats struct {
	RowsRead    int64 // base rows + index entries examined
	RowsSent    int64 // result rows (or rows affected for DML)
	PageReads   int64
	SortRows    int64
	RowsWritten int64
	IndexWrites int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RowsRead += other.RowsRead
	s.RowsSent += other.RowsSent
	s.PageReads += other.PageReads
	s.SortRows += other.SortRows
	s.RowsWritten += other.RowsWritten
	s.IndexWrites += other.IndexWrites
}

// CPU cost model coefficients (seconds per unit of work). Page reads
// dominate, reflecting random I/O wait cycles that the paper's cpu_avg
// metric includes via CPU_IOWAIT.
const (
	CostPageRead   = 40e-6
	CostRowRead    = 1.5e-6
	CostSortRow    = 1.2e-6 // multiplied by log2(n)
	CostRowWrite   = 4e-6
	CostIndexWrite = 6e-6
)

// CPUSeconds converts physical work into modelled CPU seconds.
func (s Stats) CPUSeconds() float64 {
	sort := float64(s.SortRows)
	if s.SortRows > 1 {
		sort *= log2(float64(s.SortRows))
	}
	return CostPageRead*float64(s.PageReads) +
		CostRowRead*float64(s.RowsRead) +
		CostSortRow*sort +
		CostRowWrite*float64(s.RowsWritten) +
		CostIndexWrite*float64(s.IndexWrites)
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}
