package baselines

import (
	"sort"
	"time"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/pool"
	"aim/internal/workload"
)

// DTA is an anytime Database-Tuning-Advisor-style enumerator: per query it
// seeds candidate indexes by enumerating permutations of the query's
// equality columns (with an optional trailing range/sort column) up to
// MaxWidth, evaluates every candidate per query through the what-if
// optimizer, keeps the most promising seeds, and then greedily composes a
// configuration by repeatedly adding the candidate with the best marginal
// workload-cost reduction. The per-query enumeration is exponential in
// width — the paper had to cap DTA at width 3-4 to finish (§VI-B).
type DTA struct {
	// MaxWidth caps enumerated index width.
	MaxWidth int
	// TimeLimit aborts the greedy phase (anytime behaviour); 0 = none.
	TimeLimit time.Duration
}

// dtaSeedsPerQuery is how many of a query's best candidates survive seeding.
const dtaSeedsPerQuery = 4

// Name implements Advisor.
func (d *DTA) Name() string { return "DTA" }

// Recommend implements Advisor.
func (d *DTA) Recommend(db *engine.DB, queries []*workload.QueryStats, budgetBytes int64) (*Result, error) {
	start := time.Now()
	calls0 := db.Optimizer.Calls()
	maxWidth := d.MaxWidth
	if maxWidth <= 0 {
		maxWidth = 3
	}

	// Phase 1: per-query candidate seeding — each query's enumeration and
	// what-if scoring runs on a worker; the winning seeds merge into the
	// candidate set sequentially in workload order.
	type scored struct {
		ix   *catalog.Index
		cost float64
	}
	perQ := make([][]scored, len(queries))
	pool.ForEach(pool.Workers(0), len(queries), func(qi int) {
		q := queries[qi]
		if q.IsDML() {
			return
		}
		sel := boundSelect(q)
		if sel == nil {
			return
		}
		var perQuery []scored
		for _, rc := range queryRoleColumns(db, q) {
			for _, cols := range enumerateCandidates(rc, maxWidth) {
				ix := mkIndex("dta", rc.table, cols)
				est, err := db.WhatIf.EstimateSelectConfig(sel, []*catalog.Index{ix})
				if err != nil {
					continue
				}
				perQuery = append(perQuery, scored{ix, est.Cost})
			}
		}
		sort.SliceStable(perQuery, func(i, j int) bool { return perQuery[i].cost < perQuery[j].cost })
		if len(perQuery) > dtaSeedsPerQuery {
			perQuery = perQuery[:dtaSeedsPerQuery]
		}
		perQ[qi] = perQuery
	})
	candSet := map[string]*catalog.Index{}
	for _, perQuery := range perQ {
		for _, s := range perQuery {
			candSet[s.ix.Key()] = s.ix
		}
	}
	cands := make([]*catalog.Index, 0, len(candSet))
	keys := make([]string, 0, len(candSet))
	for k := range candSet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cands = append(cands, candSet[k])
	}

	// Phase 2: greedy configuration composition.
	var config []*catalog.Index
	cost := WorkloadCost(db, queries, config)
	size := int64(0)
	used := map[string]bool{}
	for {
		if d.TimeLimit > 0 && time.Since(start) > d.TimeLimit {
			break
		}
		bestIdx := -1
		bestCost := cost
		for i, ix := range cands {
			if used[ix.Key()] {
				continue
			}
			if budgetBytes > 0 && size+db.EstimateIndexSize(ix) > budgetBytes {
				continue
			}
			c := WorkloadCost(db, queries, withIndex(config, ix))
			if c < bestCost {
				bestCost = c
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		ix := cands[bestIdx]
		config = withIndex(config, ix)
		used[ix.Key()] = true
		size += db.EstimateIndexSize(ix)
		cost = bestCost
	}

	return &Result{
		Indexes:        config,
		OptimizerCalls: db.Optimizer.Calls() - calls0,
		Elapsed:        time.Since(start),
		EstimatedCost:  cost,
	}, nil
}

// enumerateCandidates produces index column lists for one query/table: all
// permutations of up to maxWidth equality columns, each optionally followed
// by one range column or the order/group sequence.
func enumerateCandidates(rc roleColumns, maxWidth int) [][]string {
	var out [][]string
	add := func(cols []string) {
		if len(cols) == 0 {
			return
		}
		if len(cols) > maxWidth {
			cols = cols[:maxWidth]
		}
		out = append(out, dedupe(cols))
	}
	eq := rc.eq
	if len(eq) > 6 {
		eq = eq[:6] // bound the factorial blow-up at 720 permutations
	}
	var permute func(prefix, rest []string)
	permute = func(prefix, rest []string) {
		if len(prefix) > 0 {
			add(append([]string(nil), prefix...))
			for _, r := range rc.rng {
				add(append(append([]string(nil), prefix...), r))
			}
			if len(rc.group) > 0 {
				add(append(append([]string(nil), prefix...), rc.group...))
			}
			if len(rc.order) > 0 {
				add(append(append([]string(nil), prefix...), rc.order...))
			}
		}
		if len(prefix) >= maxWidth {
			return
		}
		for i, r := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			permute(append(prefix, r), next)
		}
	}
	permute(nil, eq)
	for _, r := range rc.rng {
		add([]string{r})
	}
	if len(rc.group) > 0 {
		add(append([]string(nil), rc.group...))
	}
	if len(rc.order) > 0 {
		add(append([]string(nil), rc.order...))
	}
	// Deduplicate column lists.
	seen := map[string]bool{}
	var uniq [][]string
	for _, cols := range out {
		k := rc.table + ":" + joinCols(cols)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, cols)
		}
	}
	return uniq
}

func joinCols(cols []string) string {
	s := ""
	for i, c := range cols {
		if i > 0 {
			s += ","
		}
		s += c
	}
	return s
}
