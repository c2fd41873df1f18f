package baselines

import (
	"time"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/optimizer"
	"aim/internal/workload"
)

// Extend implements the greedy attribute-appending algorithm of Schlosser,
// Kossmann & Boissier (ICDE 2019): start from an empty configuration; in
// each round, consider (a) adding a fresh single-attribute index and
// (b) appending one attribute to an already selected index, and commit the
// move with the best cost-reduction-per-byte ratio. Every considered move
// re-costs the entire workload through the optimizer, which is what makes
// the algorithm precise but slow — the contrast AIM's Figure 4 shows.
type Extend struct {
	// MaxWidth caps index width (the paper's experiments use 3-4).
	MaxWidth int
}

// Name implements Advisor.
func (e *Extend) Name() string { return "Extend" }

// Recommend implements Advisor.
func (e *Extend) Recommend(db *engine.DB, queries []*workload.QueryStats, budgetBytes int64) (*Result, error) {
	start := time.Now()
	calls0 := db.Optimizer.Calls()
	cs := optimizer.NewCoster(db.Optimizer)
	maxWidth := e.MaxWidth
	if maxWidth <= 0 {
		maxWidth = 4
	}

	tables := relevantColumns(db, queries)
	var config []*catalog.Index
	cost := WorkloadCost(cs, queries, config)
	size := int64(0)

	for {
		type move struct {
			cfg   []*catalog.Index
			cost  float64
			size  int64
			ratio float64
		}
		var best *move
		consider := func(cfg []*catalog.Index, ix *catalog.Index) {
			newSize := size + db.EstimateIndexSize(ix)
			if budgetBytes > 0 && newSize > budgetBytes {
				return
			}
			c := WorkloadCost(cs, queries, cfg)
			if c >= cost {
				return
			}
			ratio := (cost - c) / float64(db.EstimateIndexSize(ix)+1)
			if best == nil || ratio > best.ratio {
				best = &move{cfg: cfg, cost: c, size: newSize, ratio: ratio}
			}
		}
		// (a) fresh single-attribute indexes.
		for _, t := range tables {
			for _, col := range t.cols {
				ix := mkIndex("ext", t.table, []string{col})
				if containsKey(config, ix.Key()) {
					continue
				}
				consider(withIndex(config, ix), ix)
			}
		}
		// (b) append one attribute to an existing index.
		for i, existing := range config {
			if len(existing.Columns) >= maxWidth {
				continue
			}
			for _, t := range tables {
				if t.table != existing.Table {
					continue
				}
				for _, col := range t.cols {
					dup := false
					for _, c := range existing.Columns {
						if c == col {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					wider := mkIndex("ext", existing.Table, append(append([]string(nil), existing.Columns...), col))
					if containsKey(config, wider.Key()) {
						continue
					}
					cfg := append([]*catalog.Index(nil), config...)
					cfg[i] = wider
					// Size delta: replacing, not adding; approximate by the
					// width growth.
					newSize := size - db.EstimateIndexSize(existing) + db.EstimateIndexSize(wider)
					if budgetBytes > 0 && newSize > budgetBytes {
						continue
					}
					c := WorkloadCost(cs, queries, cfg)
					if c >= cost {
						continue
					}
					ratio := (cost - c) / float64(db.EstimateIndexSize(wider)-db.EstimateIndexSize(existing)+1)
					if best == nil || ratio > best.ratio {
						best = &move{cfg: cfg, cost: c, size: newSize, ratio: ratio}
					}
				}
			}
		}
		if best == nil {
			break
		}
		config, cost, size = best.cfg, best.cost, best.size
	}

	return &Result{
		Indexes:        config,
		OptimizerCalls: db.Optimizer.Calls() - calls0,
		Elapsed:        time.Since(start),
		EstimatedCost:  cost,
	}, nil
}
