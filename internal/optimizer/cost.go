// Package optimizer implements a cost-based query optimizer over the
// storage engine: histogram-based selectivity estimation, per-table access
// path selection (full scan, index range scan, covering scan, ICP), join
// order enumeration, and physical plan construction for the executor.
//
// Crucially for AIM, the optimizer also implements the "what-if" API: it can
// cost queries under hypothetical (dataless) index configurations that exist
// only as catalog definitions plus statistics, never materialized. Every
// what-if invocation is counted, because advisor runtime comparisons in the
// paper hinge on how many optimizer calls each algorithm makes.
package optimizer

import (
	"aim/internal/exec"
	"aim/internal/queryinfo"
	"aim/internal/sqltypes"
	"aim/internal/stats"
)

// Cost model constants mirror the executor's accounting (exec.Cost*), so
// estimated costs are commensurable with observed CPU seconds.
const (
	costPage       = exec.CostPageRead
	costRow        = exec.CostRowRead
	costSortRow    = exec.CostSortRow
	costRowWrite   = exec.CostRowWrite
	costIndexWrite = exec.CostIndexWrite

	// entriesPerLeaf estimates B+tree leaf occupancy for page-count math.
	entriesPerLeaf = 48
	// defaultRangeSel is used when a range bound's value is unknown
	// (placeholder) or no histogram is available.
	defaultRangeSel = 0.30
	// defaultLikeSel is the selectivity of LIKE 'prefix%' with unknown prefix.
	defaultLikeSel = 0.10
	// defaultInCount is the assumed IN-list length for normalized queries.
	defaultInCount = 3
	// defaultConjunctSel is used for opaque (OR / expression) conjuncts.
	defaultConjunctSel = 0.5
)

// StatsProvider serves table statistics to the optimizer.
type StatsProvider interface {
	TableStats(table string) *stats.TableStats
}

// atomSelectivity estimates the fraction of a table's rows matching an atom
// whose placeholders take their values from params (nil: unknown, shape-only
// defaults).
func atomSelectivity(a *queryinfo.Atom, ts *stats.TableStats, params []sqltypes.Value) float64 {
	if ts == nil || ts.RowCount == 0 {
		return defaultSel(a)
	}
	cs := ts.Column(a.Column)
	if cs == nil {
		return defaultSel(a)
	}
	switch a.Op {
	case queryinfo.OpEq, queryinfo.OpNullSafeEq:
		eq := a.Eq(params)
		if eq == nil {
			if cs.NDV > 0 {
				return clamp(1 / float64(cs.NDV))
			}
			return 0.1
		}
		if eq.IsNull() {
			if a.Op == queryinfo.OpNullSafeEq {
				return cs.SelectivityIsNull()
			}
			return 0
		}
		return clamp(cs.SelectivityEq(*eq))
	case queryinfo.OpIn:
		n := len(a.InValues)
		if n == 0 {
			n = defaultInCount
		}
		if cs.NDV > 0 {
			return clamp(float64(n) / float64(cs.NDV))
		}
		return clamp(float64(n) * 0.05)
	case queryinfo.OpIsNull:
		return clamp(cs.SelectivityIsNull())
	case queryinfo.OpRange, queryinfo.OpLikePrefix:
		lop, hip := a.Low(params), a.High(params)
		if lop == nil && hip == nil {
			return defaultSel(a)
		}
		lo, hi := sqltypes.Null, sqltypes.Null
		if lop != nil {
			lo = *lop
		}
		if hip != nil {
			hi = *hip
		}
		return clamp(cs.SelectivityRange(lo, hi, a.LoInc, a.HiInc))
	default:
		return defaultConjunctSel
	}
}

// defaultSel is the shape-only selectivity when no statistics apply.
func defaultSel(a *queryinfo.Atom) float64 {
	switch a.Op {
	case queryinfo.OpEq, queryinfo.OpNullSafeEq:
		return 0.05
	case queryinfo.OpIn:
		return 0.10
	case queryinfo.OpIsNull:
		return 0.05
	case queryinfo.OpLikePrefix:
		return defaultLikeSel
	case queryinfo.OpRange:
		return defaultRangeSel
	default:
		return defaultConjunctSel
	}
}

func clamp(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// joinEdgeSelectivity estimates the selectivity of an equi-join edge from its
// two tables' statistics using the classic 1/max(NDV_l, NDV_r) formula.
func joinEdgeSelectivity(e queryinfo.JoinEdge, l, r *stats.TableStats) float64 {
	maxNDV := int64(10)
	if l != nil {
		if cs := l.Column(e.LeftColumn); cs != nil && cs.NDV > maxNDV {
			maxNDV = cs.NDV
		}
	}
	if r != nil {
		if cs := r.Column(e.RightColumn); cs != nil && cs.NDV > maxNDV {
			maxNDV = cs.NDV
		}
	}
	return 1 / float64(maxNDV)
}

// scanPages estimates leaf pages touched when reading n entries sequentially.
func scanPages(n float64) float64 {
	p := n / entriesPerLeaf
	if p < 1 {
		p = 1
	}
	return p
}
