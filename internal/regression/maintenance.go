package regression

import (
	"sort"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// maintenanceFloorCPU is the minimum per-window maintenance cost (modeled
// CPU seconds) before the economics guard considers an index at all; below
// it the window carries too little write evidence to act on.
const maintenanceFloorCPU = 1e-5

// ObserveMaintenance is the write-amplification guard. The window-over-window
// detector is blind to an index that was adopted under a read-heavy mix and
// turned into a maintenance liability when the mix flipped write-heavy: the
// first write-heavy window *establishes* the DML baselines with the index
// cost already included, so no per-query comparison ever regresses. This
// check re-runs the adoption economics (Eq. 7 gain vs. Eq. 8 maintenance) on
// the observed window instead: for every automation-created index it prices
// the window's DML maintenance attributable to the index against the read
// CPU the index saved the window's SELECTs, both via what-if costing under
// the current versus the index-removed configuration. An index whose
// maintenance exceeds its gain by more than Threshold is returned as a
// Regression (ReasonCode "maintenance_regression") whose suspect is the
// index itself and whose Normalized query is the dominant DML contributor —
// ready for Revert.
//
// The comparison is deliberately conservative: gain counts every SELECT in
// the window regardless of MinExecutions, while maintenance only counts DML
// at or above it, so a single busy window cannot revert an index that still
// pays for itself.
func (d *Detector) ObserveMaintenance(db *engine.DB, mon *workload.Monitor) []*Regression {
	type account struct {
		ix          *catalog.Index
		maintenance float64
		gain        float64
		topQuery    string
		topCost     float64
	}
	accounts := map[string]*account{}
	for _, ix := range db.Schema.Indexes() {
		if ix.Hypothetical || ix.CreatedBy == "" || ix.CreatedBy == "dba" {
			continue
		}
		accounts[ix.Key()] = &account{ix: ix}
	}
	if len(accounts) == 0 {
		return nil
	}
	// configWithout is the full materialized index set minus one key: the
	// counterfactual "what would this query cost if we had not adopted it".
	configWithout := func(key string) []*catalog.Index {
		var cfg []*catalog.Index
		for _, ix := range db.Schema.Indexes() {
			if ix.Hypothetical || ix.Key() == key {
				continue
			}
			cfg = append(cfg, ix)
		}
		return cfg
	}
	for _, q := range mon.Queries() {
		if q.IsDML() {
			if q.Executions < d.MinExecutions {
				continue
			}
			est, err := db.Optimizer.EstimateDML(q.Stmt, nil)
			if err != nil {
				continue
			}
			w := float64(q.Executions)
			for key, m := range est.IndexMaintenance {
				a, ok := accounts[key]
				if !ok {
					continue
				}
				cost := m * w
				a.maintenance += cost
				if cost > a.topCost {
					a.topCost, a.topQuery = cost, q.Normalized
				}
			}
			continue
		}
		sel, ok := q.Stmt.(*sqlparser.Select)
		if !ok {
			continue
		}
		full, err := db.Optimizer.EstimateSelect(sel, nil)
		if err != nil {
			continue
		}
		for _, u := range full.Used {
			if u.Index == nil {
				continue
			}
			a, ok := accounts[u.Index.Key()]
			if !ok {
				continue
			}
			alt, err := db.Optimizer.EstimateSelectConfig(sel, configWithout(u.Index.Key()))
			if err != nil {
				continue
			}
			if alt.Cost > full.Cost {
				a.gain += (alt.Cost - full.Cost) * float64(q.Executions)
			}
		}
	}
	keys := make([]string, 0, len(accounts))
	for k := range accounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var found []*Regression
	for _, k := range keys {
		a := accounts[k]
		if a.maintenance < maintenanceFloorCPU {
			continue
		}
		if a.maintenance <= a.gain*(1+d.Threshold) {
			continue
		}
		found = append(found, &Regression{
			Normalized:     a.topQuery,
			BeforeCPU:      a.gain,
			AfterCPU:       a.maintenance,
			ReasonCode:     "maintenance_regression",
			SuspectIndexes: []*catalog.Index{a.ix},
		})
	}
	if len(found) > 0 {
		db.ObsRegistry().Counter("regression.maintenance_flagged").Add(int64(len(found)))
	}
	return found
}
