package baselines

import (
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/workload"
)

// AIM adapts the core advisor to the common baseline interface so that the
// Figure 4-6 harnesses compare all algorithms uniformly.
type AIM struct {
	// J is the join parameter; MaxWidth matches the width caps applied to
	// DTA/Extend in §VI-B.
	J              int
	MaxWidth       int
	EnableCovering bool
}

// Name implements Advisor.
func (a *AIM) Name() string { return "AIM" }

// Recommend implements Advisor.
func (a *AIM) Recommend(db *engine.DB, queries []*workload.QueryStats, budgetBytes int64) (*Result, error) {
	j := a.J
	if j == 0 {
		j = 2
	}
	cfg := core.DefaultConfig()
	cfg.J = j
	cfg.BudgetBytes = budgetBytes
	cfg.MaxWidth = a.MaxWidth
	cfg.EnableCovering = a.EnableCovering
	adv := core.NewAdvisor(db, cfg)
	rec, err := adv.RecommendQueries(queries)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Indexes:        rec.Create,
		OptimizerCalls: rec.OptimizerCalls,
		Elapsed:        rec.Elapsed,
	}
	res.EstimatedCost = WorkloadCost(db.Optimizer, queries, rec.Create)
	return res, nil
}
