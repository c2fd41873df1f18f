package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/costcache"
	"aim/internal/engine"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// Config tunes the AIM advisor.
type Config struct {
	// J is the join parameter (§IV-C). The paper reports no incremental
	// benefit beyond 3 on production workloads; 2 is the sweet spot.
	J int
	// BudgetBytes caps the total size of recommended indexes; 0 = no cap.
	BudgetBytes int64
	// MaxWidth truncates candidate indexes to this many columns; 0 = no cap.
	MaxWidth int
	// EnableCovering turns on the covering-index phase.
	EnableCovering bool
	// SeekThreshold is the estimated PK-lookup count at which covering
	// indexes become worthwhile (high for SSDs, §III-D).
	SeekThreshold float64
	// Selection configures representative workload selection.
	Selection workload.SelectionConfig
	// Ablation knobs (see DESIGN.md): disable partial-order merging, use
	// an arbitrary range column instead of the dataless-index probe, or
	// rank the knapsack by raw utility instead of utility per byte.
	DisableMerging       bool
	ArbitraryRangeColumn bool
	RankByUtilityOnly    bool
	// ShardCount adjusts the economics for horizontally sharded databases
	// (§VIII(b)): the observed workload is fleet-aggregated, but every
	// shard pays the storage and maintenance of every index, so both are
	// scaled by the shard count. 0/1 = unsharded.
	ShardCount int
	// Parallelism bounds the worker pool used for what-if costing fan-out.
	// 0 = GOMAXPROCS, 1 = sequential. The recommendation is identical at
	// any setting; only wall-clock time changes.
	Parallelism int
}

// DefaultConfig mirrors the deployment defaults described in the paper.
func DefaultConfig() Config {
	return Config{
		J:              2,
		EnableCovering: true,
		SeekThreshold:  200,
		Selection:      workload.DefaultSelection(),
	}
}

// Advisor is the AIM driver (Algorithm 1).
type Advisor struct {
	DB  *engine.DB
	Cfg Config
}

// NewAdvisor returns an advisor over the database.
func NewAdvisor(db *engine.DB, cfg Config) *Advisor {
	return &Advisor{DB: db, Cfg: cfg}
}

// Explanation is the metrics-driven justification attached to each
// recommendation, making machine-driven changes auditable.
type Explanation struct {
	Index          *catalog.Index
	PartialOrder   string
	GainCPU        float64 // CPU seconds saved per window (Eq. 7 share)
	MaintenanceCPU float64 // CPU seconds added per window (Eq. 8)
	SizeBytes      int64
	Queries        []string // normalized queries that benefit
}

// String renders a human-readable explanation.
func (e *Explanation) String() string {
	return fmt.Sprintf("%s: gain %.4fs cpu/window, maintenance %.4fs, size %d bytes, serves %d queries (from %s)",
		e.Index, e.GainCPU, e.MaintenanceCPU, e.SizeBytes, len(e.Queries), e.PartialOrder)
}

// Recommendation is the advisor output.
type Recommendation struct {
	// Create lists the selected indexes in descending utility-per-byte.
	Create []*catalog.Index
	// Drop lists existing secondary indexes no executed plan of the
	// workload read.
	Drop []*catalog.Index
	// Explanations parallel Create.
	Explanations []*Explanation
	// Candidates is the full ranked candidate list (selected or not).
	Candidates []*Candidate
	// PartialOrders is the merged partial-order pool size, and
	// CandidateCount the number of linearized candidates considered.
	PartialOrders  int
	CandidateCount int
	// OptimizerCalls incurred by this run, and wall-clock Elapsed.
	OptimizerCalls int64
	Elapsed        time.Duration
	// Cache reports the what-if cost-cache activity during this run
	// (hits/misses/evictions delta, absolute entry count).
	Cache costcache.Stats
}

// TotalCreateBytes sums the estimated size of the recommended indexes.
func (r *Recommendation) TotalCreateBytes() int64 {
	var n int64
	for _, e := range r.Explanations {
		n += e.SizeBytes
	}
	return n
}

// materializedIndexes returns the schema's real (non-hypothetical) indexes.
func (a *Advisor) materializedIndexes() []*catalog.Index {
	var out []*catalog.Index
	for _, ix := range a.DB.Schema.Indexes() {
		if !ix.Hypothetical {
			out = append(out, ix)
		}
	}
	return out
}

// Recommend runs Algorithm 1 end to end: representative workload selection,
// candidate generation, partial-order merging, ranking and budgeted
// selection. Materialization and the no-regression gate live in the shadow
// package; the returned indexes are hypothetical until created.
func (a *Advisor) Recommend(mon *workload.Monitor) (*Recommendation, error) {
	return a.RecommendQueries(mon.Representative(a.Cfg.Selection))
}

// RecommendQueries runs the advisor on an explicit, pre-selected workload
// (used by benchmark harnesses that bypass representative selection).
func (a *Advisor) RecommendQueries(rep []*workload.QueryStats) (*Recommendation, error) {
	start := time.Now()
	calls0 := a.DB.Optimizer.Calls()
	cache0 := a.DB.WhatIf.CacheStats()

	// Spans and counters are nil-safe no-ops when no registry is attached;
	// metrics record the run, they never influence it.
	reg := a.DB.ObsRegistry()
	root := reg.StartSpan("advisor")
	defer root.End()

	gen := &Generator{
		DB:                   a.DB,
		J:                    a.Cfg.J,
		EnableCovering:       a.Cfg.EnableCovering,
		SeekThreshold:        a.Cfg.SeekThreshold,
		DisableMerging:       a.Cfg.DisableMerging,
		ArbitraryRangeColumn: a.Cfg.ArbitraryRangeColumn,
		Parallelism:          a.Cfg.Parallelism,
	}
	genSpan := root.Child("generate")
	gen.span = genSpan
	pos := gen.GenerateCandidates(rep)
	genSpan.End()

	// Linearize each partial order into one concrete candidate index,
	// deduplicating identical column sequences.
	byKey := map[string]*Candidate{}
	var cands []*Candidate
	for _, po := range pos {
		ix := gen.Linearize(po, a.Cfg.MaxWidth)
		if ix == nil {
			continue
		}
		if existing, ok := byKey[ix.Key()]; ok {
			existing.PO.Sources = mergeSources(existing.PO.Sources, po.Sources)
			continue
		}
		c := &Candidate{PO: po, Index: ix, SizeBytes: a.DB.EstimateIndexSize(ix)}
		byKey[ix.Key()] = c
		cands = append(cands, c)
	}

	// Candidate records land in the journal before ranking: even a candidate
	// that ranks to nothing is explainable afterwards. Like metrics, the
	// journal records decisions, it never influences them; nil is off.
	jrn := a.DB.AuditJournal()
	if jrn != nil {
		for _, c := range cands {
			jrn.Append(&audit.Record{
				Event:        audit.EventCandidate,
				SpanID:       genSpan.ID(),
				IndexKey:     c.Index.Key(),
				Index:        c.Index.Name,
				Table:        c.Index.Table,
				PartialOrder: c.PO.String(),
				Sources:      sourceQueries(c.PO),
			})
		}
	}

	rankSpan := root.Child("rank")
	if err := a.rankCandidates(cands, rep, rankSpan); err != nil {
		rankSpan.End()
		return nil, err
	}
	rankSpan.End()

	knapSpan := root.Child("knapsack")
	picked, decisions := a.knapsackSelect(cands, a.Cfg.BudgetBytes)
	knapSpan.End()
	if jrn != nil {
		for _, d := range decisions {
			sel := d.selected
			jrn.Append(&audit.Record{
				Event:           audit.EventRank,
				SpanID:          knapSpan.ID(),
				IndexKey:        d.cand.Index.Key(),
				Index:           d.cand.Index.Name,
				Table:           d.cand.Index.Table,
				GainCPU:         d.cand.Gain,
				MaintenanceCPU:  d.cand.Maintenance,
				SizeBytes:       d.cand.SizeBytes,
				Selected:        &sel,
				Decision:        d.decision,
				BudgetBytes:     a.Cfg.BudgetBytes,
				BudgetUsedBytes: d.usedBytes,
			})
		}
	}

	rec := &Recommendation{
		Candidates:     cands,
		PartialOrders:  len(pos),
		CandidateCount: len(cands),
	}
	for _, c := range picked {
		rec.Create = append(rec.Create, c.Index)
		var queries []string
		for q := range c.PerQueryGain {
			queries = append(queries, q)
		}
		sort.Strings(queries)
		rec.Explanations = append(rec.Explanations, &Explanation{
			Index:          c.Index,
			PartialOrder:   c.PO.String(),
			GainCPU:        c.Gain,
			MaintenanceCPU: c.Maintenance,
			SizeBytes:      c.SizeBytes,
			Queries:        queries,
		})
	}
	rec.Drop = a.unusedIndexes(rep)
	rec.OptimizerCalls = a.DB.Optimizer.Calls() - calls0
	rec.Cache = a.DB.WhatIf.CacheStats().Delta(cache0)
	rec.Elapsed = time.Since(start)
	reg.Counter("core.partial_orders").Add(int64(rec.PartialOrders))
	reg.Counter("core.candidates").Add(int64(rec.CandidateCount))
	reg.Counter("core.selected").Add(int64(len(rec.Create)))
	return rec, nil
}

// sourceQueries lists the distinct normalized queries a partial order was
// generated from, sorted for deterministic journal bytes.
func sourceQueries(po *PartialOrder) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range po.Sources {
		if !seen[s.Normalized] {
			seen[s.Normalized] = true
			out = append(out, s.Normalized)
		}
	}
	sort.Strings(out)
	return out
}

// unusedIndexes returns the existing secondary indexes that no
// representative SELECT's executed plan read (§I: "detect and drop unused
// indexes"). Only tables a representative SELECT touches are considered, so
// an empty or partial observation window never flags unrelated indexes; DML
// does not vote for keeping read indexes.
func (a *Advisor) unusedIndexes(rep []*workload.QueryStats) []*catalog.Index {
	touched := map[string]bool{}
	read := map[string]bool{}
	for _, q := range rep {
		sel, ok := q.Stmt.(*sqlparser.Select)
		if !ok {
			continue
		}
		for _, tr := range sel.Tables {
			touched[strings.ToLower(tr.Name)] = true
		}
		for _, name := range q.UsedIndexes {
			read[name] = true
		}
	}
	var drop []*catalog.Index
	for _, ix := range a.materializedIndexes() {
		if touched[strings.ToLower(ix.Table)] && !read[ix.Name] {
			drop = append(drop, ix)
		}
	}
	return drop
}

// Apply materializes a recommendation on the database: builds the created
// indexes (from materialized copies of their defs) and drops the flagged
// ones. It returns the names of created indexes. The creates go through one
// CreateIndexes batch, so a build failure rolls the whole set back — a
// faulting Apply leaves the catalog exactly as it found it rather than
// adopting a prefix of the recommendation. It collects no statistics: they
// describe table data, which index DDL does not change.
//
// Apply has no shadow verdict, so the tuning cycle adopts through Adopt;
// its one non-test caller is bench/trace.go's phase replica.
func (a *Advisor) Apply(rec *Recommendation) ([]string, error) {
	return a.apply(rec, a.DB.CreateIndexes)
}

// Adopt is Apply for creations the shadow gate accepted and built, its
// snapshot, already holds: the trees are handed over (engine.AdoptIndexes),
// not built again, and journaled as the same adoptions under the same span.
func (a *Advisor) Adopt(create []*catalog.Index, built *engine.DB) ([]string, error) {
	return a.apply(&Recommendation{Create: create}, func(defs []*catalog.Index) (*engine.Result, error) {
		return a.DB.AdoptIndexes(built, defs)
	})
}

func (a *Advisor) apply(rec *Recommendation, createIndexes func([]*catalog.Index) (*engine.Result, error)) ([]string, error) {
	span := a.DB.ObsRegistry().StartSpan("advisor/apply")
	defer span.End()
	jrn := a.DB.AuditJournal()
	var created []string
	if len(rec.Create) > 0 {
		defs := make([]*catalog.Index, len(rec.Create))
		for i, ix := range rec.Create {
			defs[i] = ix.Materialized()
		}
		if _, err := createIndexes(defs); err != nil {
			return nil, err
		}
		for _, def := range defs {
			created = append(created, def.Name)
			if jrn != nil {
				jrn.Append(&audit.Record{
					Event:    audit.EventAdopt,
					SpanID:   span.ID(),
					IndexKey: def.Key(),
					Index:    def.Name,
					Table:    def.Table,
				})
			}
		}
	}
	for _, ix := range rec.Drop {
		if _, err := a.DB.DropIndex(ix.Name); err != nil {
			return created, err
		}
	}
	return created, nil
}
