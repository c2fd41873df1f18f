package core

import (
	"sort"
	"strings"

	"aim/internal/catalog"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// Candidate is one linearized candidate index with its utility accounting.
type Candidate struct {
	PO        *PartialOrder
	Index     *catalog.Index
	SizeBytes int64
	// Gain is Σ_q s_{i,q}·U₊(q, I) in CPU seconds over the observation
	// window (Eq. 7).
	Gain float64
	// Maintenance is u₋(i), the write-amplification discount in CPU
	// seconds over the window (Eq. 8), stored positive.
	Maintenance float64
	// PerQueryGain attributes gain to normalized queries, for explanations.
	PerQueryGain map[string]float64
}

// Utility is the net benefit u(i) = gain − maintenance.
func (c *Candidate) Utility() float64 { return c.Gain - c.Maintenance }

// UtilityPerByte is the knapsack ordering criterion.
func (c *Candidate) UtilityPerByte() float64 {
	size := c.SizeBytes
	if size <= 0 {
		size = 1
	}
	return c.Utility() / float64(size)
}

// rankCandidates computes Eq. 7 gains and Eq. 8 maintenance discounts for
// every candidate against the representative workload.
//
// The per-query what-if costing fans out over a bounded worker pool; each
// worker writes its query's result into its own slot and the per-candidate
// accumulation happens afterwards, sequentially, in workload order — so the
// float folds (and therefore the recommendation) are bit-identical no
// matter the pool size.
func (a *Advisor) rankCandidates(cands []*Candidate, queries []*workload.QueryStats, span *obs.Span) error {
	existing := a.materializedIndexes()
	byKey := map[string]int{}
	var allIdx []*catalog.Index
	for i, c := range cands {
		byKey[c.Index.Key()] = i
		allIdx = append(allIdx, c.Index)
	}
	workers := pool.Workers(a.Cfg.Parallelism)
	opt := a.DB.Optimizer

	// Gains: per query, cost with vs without the candidates generated for
	// it; the gain is shared among the candidates the optimizer would use.
	type share struct {
		cand int
		gain float64
	}
	gainSpan := span.Child("gains")
	gainShares := make([][]share, len(queries))
	pool.ForEach(workers, len(queries), func(qi int) {
		q := queries[qi]
		if q.IsDML() {
			return
		}
		sel, ok := q.Sample().(*sqlparser.Select)
		if !ok {
			return
		}
		var forQ []*catalog.Index
		forQCand := map[string]int{} // index key -> candidate position
		for ci, c := range cands {
			for _, s := range c.PO.Sources {
				if s.Normalized == q.Normalized {
					forQ = append(forQ, c.Index)
					forQCand[c.Index.Key()] = ci
					break
				}
			}
		}
		if len(forQ) == 0 {
			return
		}
		base, err := opt.EstimateSelectConfig(sel, existing)
		if err != nil {
			return
		}
		with, err := opt.EstimateSelectConfig(sel, append(append([]*catalog.Index(nil), existing...), forQ...))
		if err != nil {
			return
		}
		if base.Cost <= 0 || with.Cost >= base.Cost {
			return
		}
		uPlus := (base.Cost - with.Cost) / base.Cost * q.CPUSeconds
		// Share ∝ the I/O reduction each used candidate provides. Only the
		// candidates generated for this query are in the configuration, so
		// attribution goes through forQCand.
		type weighted struct {
			cand int
			w    float64
		}
		var raw []weighted
		total := 0.0
		for _, u := range with.Used {
			if u.Index == nil {
				continue
			}
			ci, ok := forQCand[u.Index.Key()]
			if !ok {
				continue // an existing index, not a candidate
			}
			rows := 1.0
			if ts := a.DB.TableStats(u.Index.Table); ts != nil {
				rows = float64(ts.RowCount)
			}
			w := rows - u.EstEntries
			if w < 1 {
				w = 1
			}
			raw = append(raw, weighted{ci, w})
			total += w
		}
		shares := make([]share, 0, len(raw))
		for _, r := range raw {
			shares = append(shares, share{r.cand, uPlus * r.w / total})
		}
		gainShares[qi] = shares
	})
	for qi, shares := range gainShares {
		q := queries[qi]
		for _, s := range shares {
			c := cands[s.cand]
			c.Gain += s.gain
			if c.PerQueryGain == nil {
				c.PerQueryGain = map[string]float64{}
			}
			c.PerQueryGain[q.Normalized] += s.gain
		}
	}
	gainSpan.End()

	// Maintenance: per DML query, attribute per-candidate index update cost
	// relative to the statement's base cost (Eq. 8).
	type upkeep struct {
		cand int
		m    float64
	}
	maintSpan := span.Child("maintenance")
	maintRes := make([][]upkeep, len(queries))
	pool.ForEach(workers, len(queries), func(qi int) {
		q := queries[qi]
		if !q.IsDML() {
			return
		}
		stmt := q.Sample()
		baseEst, err := opt.EstimateDMLConfig(stmt, existing)
		if err != nil {
			return
		}
		denom := baseEst.TotalCost()
		if denom <= 0 {
			return
		}
		withEst, err := opt.EstimateDMLConfig(stmt, append(append([]*catalog.Index(nil), existing...), allIdx...))
		if err != nil {
			return
		}
		var out []upkeep
		for key, m := range withEst.IndexMaintenance {
			ci, ok := byKey[key]
			if !ok {
				continue
			}
			out = append(out, upkeep{ci, m / denom * q.CPUSeconds})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].cand < out[j].cand })
		maintRes[qi] = out
	})
	for _, ms := range maintRes {
		for _, m := range ms {
			cands[m.cand].Maintenance += m.m
		}
	}
	maintSpan.End()

	// Sharding economics (§VIII(b)): every shard pays maintenance and
	// storage for every index, while the aggregated gains already include
	// the whole fleet's executions.
	if a.Cfg.ShardCount > 1 {
		f := float64(a.Cfg.ShardCount)
		for _, c := range cands {
			c.Maintenance *= f
			c.SizeBytes *= int64(a.Cfg.ShardCount)
		}
	}
	return nil
}

// knapDecision is the audit-journal view of one knapsack verdict: why a
// candidate was kept or cut, and how much budget was consumed when the
// decision fell. Decisions are emitted in evaluation (utility-per-byte)
// order so the budget column reads as a running total.
type knapDecision struct {
	cand      *Candidate
	selected  bool
	decision  string // selected|nonpositive_utility|duplicate_existing|over_budget|prefix_redundant
	usedBytes int64
}

// knapsackSelect implements §III-F's budgeted selection: candidates are
// taken in decreasing utility-per-byte order while the storage budget
// allows, skipping non-positive utilities and exact duplicates of existing
// indexes. Afterwards, selected candidates that are strict prefixes of
// other selected candidates are dropped as redundant. The second return
// value records every verdict for the decision journal.
func (a *Advisor) knapsackSelect(cands []*Candidate, budget int64) ([]*Candidate, []knapDecision) {
	sorted := append([]*Candidate(nil), cands...)
	if a.Cfg.RankByUtilityOnly {
		sort.SliceStable(sorted, func(i, j int) bool {
			return sorted[i].Utility() > sorted[j].Utility()
		})
	} else {
		sort.SliceStable(sorted, func(i, j int) bool {
			return sorted[i].UtilityPerByte() > sorted[j].UtilityPerByte()
		})
	}
	var picked []*Candidate
	decisions := make([]knapDecision, 0, len(sorted))
	var used int64
	for _, c := range sorted {
		switch {
		case c.Utility() <= 0:
			decisions = append(decisions, knapDecision{c, false, "nonpositive_utility", used})
		case a.DB.Schema.FindIndexByColumns(c.Index.Table, c.Index.Columns) != nil:
			decisions = append(decisions, knapDecision{c, false, "duplicate_existing", used})
		case budget > 0 && used+c.SizeBytes > budget:
			decisions = append(decisions, knapDecision{c, false, "over_budget", used})
		default:
			picked = append(picked, c)
			used += c.SizeBytes
			decisions = append(decisions, knapDecision{c, true, "selected", used})
		}
	}
	final := dropPrefixRedundant(picked)
	kept := make(map[*Candidate]bool, len(final))
	for _, c := range final {
		kept[c] = true
	}
	for i := range decisions {
		if decisions[i].selected && !kept[decisions[i].cand] {
			decisions[i].selected = false
			decisions[i].decision = "prefix_redundant"
		}
	}
	return final, decisions
}

// dropPrefixRedundant removes selected candidates whose key columns are a
// strict prefix of another selected candidate on the same table.
func dropPrefixRedundant(picked []*Candidate) []*Candidate {
	out := picked[:0]
	for i, c := range picked {
		redundant := false
		for j, other := range picked {
			if i == j || !strings.EqualFold(c.Index.Table, other.Index.Table) {
				continue
			}
			if len(c.Index.Columns) < len(other.Index.Columns) && isPrefix(c.Index.Columns, other.Index.Columns) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, c)
		}
	}
	return out
}

func isPrefix(short, long []string) bool {
	for i, c := range short {
		if !strings.EqualFold(c, long[i]) {
			return false
		}
	}
	return true
}
