// Package baselines re-implements the index advisors AIM is compared
// against in §VI-B: Extend (Schlosser et al., ICDE 2019) and a DTA-style
// anytime enumerator (Chaudhuri & Narasayya).
//
// All of them drive the same what-if optimizer API as AIM, so the runtime
// comparison — dominated by the number of optimizer calls (§VIII(a)) — is
// apples to apples.
package baselines

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/optimizer"
	"aim/internal/pool"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/workload"
)

// Advisor is the common interface for the compared algorithms.
type Advisor interface {
	Name() string
	// Recommend selects indexes for the workload under a storage budget
	// (bytes; 0 = unlimited).
	Recommend(db *engine.DB, queries []*workload.QueryStats, budgetBytes int64) (*Result, error)
}

// Result is a baseline recommendation with its run accounting.
type Result struct {
	Indexes        []*catalog.Index
	OptimizerCalls int64
	Elapsed        time.Duration
	// EstimatedCost is the advisor's own final workload cost estimate.
	EstimatedCost float64
}

// WhatIf costs a statement under exactly a given index configuration: an
// *optimizer.Optimizer plans every call, and the *optimizer.Coster that DTA
// and Extend build per run memoizes them.
type WhatIf interface {
	EstimateSelectConfig(sel *sqlparser.Select, config []*catalog.Index) (*optimizer.Estimate, error)
	EstimateDMLConfig(stmt sqlparser.Statement, config []*catalog.Index) (*optimizer.DMLEstimate, error)
}

// WorkloadCost evaluates Σ_q w_q·cost(q, config) through w. Weights are
// execution counts. Per-query estimates are computed on a bounded worker
// pool into per-query slots and folded sequentially in workload order, so
// the sum is bit-identical to a sequential evaluation.
func WorkloadCost(w WhatIf, queries []*workload.QueryStats, config []*catalog.Index) float64 {
	costs := make([]float64, len(queries))
	pool.ForEach(pool.Workers(0), len(queries), func(qi int) {
		q := queries[qi]
		weight := float64(q.Executions)
		if weight == 0 {
			weight = 1
		}
		if q.IsDML() {
			est, err := w.EstimateDMLConfig(q.Sample(), config)
			if err != nil {
				return
			}
			costs[qi] = weight * est.TotalCost()
			return
		}
		sel, ok := q.Sample().(*sqlparser.Select)
		if !ok {
			return
		}
		est, err := w.EstimateSelectConfig(sel, config)
		if err != nil {
			return
		}
		costs[qi] = weight * est.Cost
	})
	total := 0.0
	for _, c := range costs {
		total += c
	}
	return total
}

// indexable describes one table's workload-relevant columns.
type indexable struct {
	table string
	// filter columns in rough selectivity-relevance order, then join,
	// group, order and projection columns.
	cols []string
}

// relevantColumns extracts, per table, the columns that any query touches
// in an indexable role (filter, join, group-by, order-by), plus referenced
// columns for include-style extensions.
func relevantColumns(db *engine.DB, queries []*workload.QueryStats) []indexable {
	perTable := map[string][]string{}
	seen := map[string]map[string]bool{}
	add := func(table, col string) {
		t := strings.ToLower(table)
		c := strings.ToLower(col)
		if seen[t] == nil {
			seen[t] = map[string]bool{}
		}
		if !seen[t][c] {
			seen[t][c] = true
			perTable[t] = append(perTable[t], c)
		}
	}
	for _, q := range queries {
		sel, ok := q.Sample().(*sqlparser.Select)
		if !ok {
			continue
		}
		info, err := queryinfo.Analyze(sel, db.Schema)
		if err != nil {
			continue
		}
		for inst, atoms := range info.FilterAtoms {
			table := info.Layout.Instances[inst].Table.Name
			for _, a := range atoms {
				if a.Column != "" {
					add(table, a.Column)
				}
			}
		}
		for _, e := range info.JoinEdges {
			add(info.Layout.Instances[e.LeftInstance].Table.Name, e.LeftColumn)
			add(info.Layout.Instances[e.RightInstance].Table.Name, e.RightColumn)
		}
		for _, g := range info.GroupBy {
			add(info.Layout.Instances[g.Instance].Table.Name, g.Column)
		}
		for _, o := range info.OrderBy {
			add(info.Layout.Instances[o.Instance].Table.Name, o.Column)
		}
	}
	var out []indexable
	tables := make([]string, 0, len(perTable))
	for t := range perTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		cols := perTable[t]
		sort.Strings(cols)
		out = append(out, indexable{table: t, cols: cols})
	}
	return out
}

// mkIndex builds a named hypothetical index for a baseline advisor.
func mkIndex(creator, table string, cols []string) *catalog.Index {
	h := fnv.New32a()
	h.Write([]byte(table + ":" + strings.Join(cols, ",")))
	return &catalog.Index{
		Name:         fmt.Sprintf("%s_%s_%08x", creator, table, h.Sum32()),
		Table:        table,
		Columns:      append([]string(nil), cols...),
		Hypothetical: true,
		CreatedBy:    creator,
	}
}

// totalSize sums estimated index sizes.
func totalSize(db *engine.DB, config []*catalog.Index) int64 {
	var n int64
	for _, ix := range config {
		n += db.EstimateIndexSize(ix)
	}
	return n
}

// withIndex returns config ∪ {ix} as a fresh slice.
func withIndex(config []*catalog.Index, ix *catalog.Index) []*catalog.Index {
	out := make([]*catalog.Index, 0, len(config)+1)
	out = append(out, config...)
	return append(out, ix)
}

// containsKey reports whether config already holds an index with the key.
func containsKey(config []*catalog.Index, key string) bool {
	for _, ix := range config {
		if ix.Key() == key {
			return true
		}
	}
	return false
}

// dedupe removes duplicate values while preserving order.
func dedupe(cols []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// queryColumnsByRole returns, for a single query and table instance, the
// columns split by their structural role — used by per-query candidate
// seeding in DTA.
type roleColumns struct {
	table string
	eq    []string
	rng   []string
	group []string
	order []string
	refd  []string
}

func queryRoleColumns(db *engine.DB, q *workload.QueryStats) []roleColumns {
	sel, ok := q.Sample().(*sqlparser.Select)
	if !ok {
		return nil
	}
	info, err := queryinfo.Analyze(sel, db.Schema)
	if err != nil {
		return nil
	}
	var out []roleColumns
	for inst := range info.Layout.Instances {
		rc := roleColumns{table: strings.ToLower(info.Layout.Instances[inst].Table.Name)}
		for _, a := range info.FilterAtoms[inst] {
			if a.Column == "" {
				continue
			}
			if a.Op.IsIPP() {
				rc.eq = append(rc.eq, a.Column)
			} else if a.Op == queryinfo.OpRange || a.Op == queryinfo.OpLikePrefix {
				rc.rng = append(rc.rng, a.Column)
			}
		}
		for _, e := range info.JoinEdges {
			if e.LeftInstance == inst {
				rc.eq = append(rc.eq, e.LeftColumn)
			}
			if e.RightInstance == inst {
				rc.eq = append(rc.eq, e.RightColumn)
			}
		}
		for _, g := range info.GroupBy {
			if g.Instance == inst {
				rc.group = append(rc.group, g.Column)
			}
		}
		for _, o := range info.OrderBy {
			if o.Instance == inst {
				rc.order = append(rc.order, o.Column)
			}
		}
		rc.eq = dedupe(rc.eq)
		rc.rng = dedupe(rc.rng)
		rc.refd = info.Referenced[inst]
		if len(rc.eq)+len(rc.rng)+len(rc.group)+len(rc.order) > 0 {
			out = append(out, rc)
		}
	}
	return out
}

var _ = sqltypes.Null // referenced by tests via helpers
