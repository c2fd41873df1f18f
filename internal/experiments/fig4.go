// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (§VI): Table II, Figures 3-6 and the
// continuous-tuning study (the codepush scenario). Each harness returns
// structured rows/series; the aimbench command prints them and bench_test.go
// wraps them as Go benchmarks. Absolute numbers differ from the paper (different substrate);
// the shapes — who wins, AIM's flat runtime, crossovers at small budgets —
// are the reproduction target.
package experiments

import (
	"fmt"
	"time"

	"aim/internal/baselines"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/workload"
	"aim/internal/workloads/job"
	"aim/internal/workloads/tpch"
)

// Fig4Point is one (budget, algorithm) measurement.
type Fig4Point struct {
	Algorithm      string
	BudgetBytes    int64
	RelativeCost   float64 // estimated workload cost / unindexed cost
	Runtime        time.Duration
	OptimizerCalls int64
	IndexCount     int
}

// Fig4Result holds one benchmark's sweep.
type Fig4Result struct {
	Benchmark string
	Points    []Fig4Point
}

// Fig4Options parameterizes the sweep.
type Fig4Options struct {
	Benchmark string  // "tpch" or "job"
	Scale     float64 // dataset scale
	Seed      int64
	// BudgetFractions of the full (unconstrained AIM) recommendation size.
	BudgetFractions []float64
	MaxWidth        int // like the paper: 4 for TPC-H, 3 for JOB
	Algorithms      []baselines.Advisor
	// Obs, when non-nil, instruments the benchmark database (what-if
	// latency, template-memo and executor metrics, advisor spans).
	Obs *obs.Registry
}

// DefaultFig4Options mirrors §VI-B: AIM vs DTA vs Extend.
func DefaultFig4Options(benchmark string) Fig4Options {
	width := 4
	if benchmark == "job" {
		width = 3
	}
	return Fig4Options{
		Benchmark:       benchmark,
		Scale:           0.2,
		Seed:            11,
		BudgetFractions: []float64{0.1, 0.25, 0.5, 0.75, 1.0},
		MaxWidth:        width,
		Algorithms: []baselines.Advisor{
			&baselines.AIM{J: 2, MaxWidth: width, EnableCovering: true},
			&baselines.DTA{MaxWidth: width},
			&baselines.Extend{MaxWidth: width},
		},
	}
}

// buildBenchmark constructs the analytical database + workload monitor with
// every query recorded once (purely analytical comparison, like §VI-B).
// reg (may be nil) is attached before the workload replay so executor
// metrics cover it.
func buildBenchmark(name string, scale float64, seed int64, reg *obs.Registry) (*engine.DB, []*workload.QueryStats, error) {
	var db *engine.DB
	var queries []string
	var err error
	switch name {
	case "tpch":
		db, err = tpch.Build(scale, seed)
		queries = tpch.Queries(seed)
	case "job":
		db, err = job.Build(scale, seed)
		queries = job.Queries(seed)
	default:
		return nil, nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	if reg != nil {
		db.SetObs(reg)
	}
	mon := workload.NewMonitor()
	for _, q := range queries {
		res, execErr := db.Exec(q)
		if execErr != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %v", name, execErr)
		}
		if err := mon.Observe(q, res); err != nil {
			return nil, nil, err
		}
	}
	return db, mon.Representative(workload.SelectionConfig{MinExecutions: 1}), nil
}

// RunFig4 sweeps storage budgets for every algorithm on one benchmark,
// producing the data behind Figures 4a-4d.
func RunFig4(opts Fig4Options) (*Fig4Result, error) {
	db, queries, err := buildBenchmark(opts.Benchmark, opts.Scale, opts.Seed, opts.Obs)
	if err != nil {
		return nil, err
	}
	unindexed := baselines.WorkloadCost(db.Optimizer, queries, nil)
	if unindexed <= 0 {
		return nil, fmt.Errorf("experiments: zero unindexed cost")
	}

	// Reference size: the unconstrained AIM recommendation.
	ref, err := (&baselines.AIM{J: 2, MaxWidth: opts.MaxWidth, EnableCovering: true}).Recommend(db, queries, 0)
	if err != nil {
		return nil, err
	}
	fullBytes := int64(0)
	for _, ix := range ref.Indexes {
		fullBytes += db.EstimateIndexSize(ix)
	}
	if fullBytes == 0 {
		fullBytes = 1 << 20
	}

	res := &Fig4Result{Benchmark: opts.Benchmark}
	for _, frac := range opts.BudgetFractions {
		budget := int64(float64(fullBytes) * frac)
		for _, algo := range opts.Algorithms {
			r, err := algo.Recommend(db, queries, budget)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %v", algo.Name(), err)
			}
			cost := baselines.WorkloadCost(db.Optimizer, queries, r.Indexes)
			res.Points = append(res.Points, Fig4Point{
				Algorithm:      algo.Name(),
				BudgetBytes:    budget,
				RelativeCost:   cost / unindexed,
				Runtime:        r.Elapsed,
				OptimizerCalls: r.OptimizerCalls,
				IndexCount:     len(r.Indexes),
			})
		}
	}
	return res, nil
}
