package experiments

import (
	"strconv"

	"aim/internal/baselines"
	"aim/internal/obs"
	"aim/internal/sqlparser"
	"aim/internal/workloads/tpch"
)

// Fig5Row is one query's estimated processing cost under each algorithm's
// configuration at the fixed budget (Fig. 5a/5b).
type Fig5Row struct {
	Query     string // the TPC-H number, "Q1".."Q22"
	Unindexed float64
	// Costs maps algorithm name -> estimated cost with its configuration.
	Costs map[string]float64
	// Affected marks queries whose cost changed under any configuration
	// (Fig. 5a shows only those).
	Affected bool
}

// Fig5Options parameterizes the per-query comparison.
type Fig5Options struct {
	Scale          float64
	Seed           int64
	BudgetFraction float64 // of the unconstrained AIM size (≈15 GB in paper)
	MaxWidth       int
	Algorithms     []baselines.Advisor
	// Obs, when non-nil, instruments the benchmark database.
	Obs *obs.Registry
}

// DefaultFig5Options mirrors the paper's TPC-H SF10 / 15 GB setting.
func DefaultFig5Options() Fig5Options {
	return Fig5Options{
		Scale:          0.2,
		Seed:           11,
		BudgetFraction: 0.75,
		MaxWidth:       4,
		Algorithms: []baselines.Advisor{
			&baselines.AIM{J: 2, MaxWidth: 4, EnableCovering: true},
			&baselines.DTA{MaxWidth: 4},
			&baselines.Extend{MaxWidth: 4},
		},
	}
}

// RunFig5 computes per-query costs on TPC-H for each algorithm's selected
// configuration at the common budget.
func RunFig5(opts Fig5Options) ([]*Fig5Row, error) {
	db, queries, err := buildBenchmark("tpch", opts.Scale, opts.Seed, opts.Obs)
	if err != nil {
		return nil, err
	}
	ref, err := (&baselines.AIM{J: 2, MaxWidth: opts.MaxWidth, EnableCovering: true}).Recommend(db, queries, 0)
	if err != nil {
		return nil, err
	}
	fullBytes := int64(0)
	for _, ix := range ref.Indexes {
		fullBytes += db.EstimateIndexSize(ix)
	}
	budget := int64(float64(fullBytes) * opts.BudgetFraction)

	// The rows follow the monitor's benefit order; each is labelled with
	// the TPC-H query whose normalized text it is.
	labels := map[string]string{}
	for k, q := range tpch.Queries(opts.Seed) {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			return nil, err
		}
		labels[sqlparser.NewTemplate(stmt).Text] = "Q" + strconv.Itoa(k+1)
	}
	rows := make([]*Fig5Row, 0, len(queries))
	for _, q := range queries {
		rows = append(rows, &Fig5Row{Query: labels[q.Normalized], Costs: map[string]float64{}})
	}
	// Unindexed per-query costs.
	for i := range queries {
		rows[i].Unindexed = baselines.WorkloadCost(db.Optimizer, queries[i:i+1], nil)
	}
	for _, algo := range opts.Algorithms {
		r, err := algo.Recommend(db, queries, budget)
		if err != nil {
			return nil, err
		}
		for i := range queries {
			c := baselines.WorkloadCost(db.Optimizer, queries[i:i+1], r.Indexes)
			rows[i].Costs[algo.Name()] = c
			if c < rows[i].Unindexed*0.999 {
				rows[i].Affected = true
			}
		}
	}
	return rows, nil
}
