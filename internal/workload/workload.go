// Package workload implements AIM's workload monitor (§III-C): it groups
// executions by normalized query, accumulates execution statistics (CPU,
// rows read/sent, execution counts), computes the discarded data ratio and
// the optimistic expected benefit of Eq. 5, and selects the representative
// workload that the candidate generator optimizes.
package workload

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/sqlparser"
)

// samplesKeep bounds how many executed statements are retained per
// normalized query for costing and replay.
const samplesKeep = 8

// QueryStats accumulates execution statistics for one normalized query.
type QueryStats struct {
	Normalized string
	// Stmt is the normalized statement (contains placeholders): the
	// template-cache entry's, or Normalized parsed, which agree up to the
	// association of AND / OR chains.
	Stmt sqlparser.Statement

	Executions int64
	CPUSeconds float64
	RowsRead   int64
	RowsSent   int64
	// SampleSQL holds recent executions of the template as the statements
	// that ran, for costing and replay.
	SampleSQL []string
	// SampleStats and SampleStamps hold, slot for slot with SampleSQL, the
	// Stats each sample's execution reported and its engine.Result.Stamp
	// (0 = none): a replay on a database whose stamp for the template is still
	// that one would report those Stats again.
	SampleStats  []exec.Stats
	SampleStamps []uint64
	// UsedIndexes is the union of the index names the template's executed
	// plans read, each name once, in first-seen order; empty when no
	// execution was ingested with its plan (RecordStmt).
	UsedIndexes []string
	// FirstSeen is the query's position among its monitor's queries in the
	// order their first executions were ingested.
	FirstSeen int

	mu     sync.Mutex
	sample sqlparser.Statement // SampleSQL[0] parsed, nil until asked for
}

// Sample returns the first sample as parsed, or Stmt when there is none:
// the statement the advisor costs for q. The parse is kept until that
// sample rotates out.
func (q *QueryStats) Sample() sqlparser.Statement {
	if len(q.SampleSQL) == 0 {
		return q.Stmt
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.sample == nil {
		q.sample = q.Stmt
		if stmt, err := sqlparser.Parse(q.SampleSQL[0]); err == nil {
			q.sample = stmt
		}
	}
	return q.sample
}

// CPUAvg returns average CPU seconds per execution.
func (q *QueryStats) CPUAvg() float64 {
	if q.Executions == 0 {
		return 0
	}
	return q.CPUSeconds / float64(q.Executions)
}

// DDR returns the data-sent-to-data-read ratio in [0, 1] (§III-A2). A low
// value means most of the data read was discarded — the query is a strong
// optimization candidate.
func (q *QueryStats) DDR() float64 {
	if q.RowsRead == 0 {
		return 1
	}
	r := float64(q.RowsSent) / float64(q.RowsRead)
	if r > 1 {
		return 1
	}
	return r
}

// Benefit is the optimistic expected benefit B(q, X, Δt) of Eq. 5: the CPU
// seconds that could be saved if every read that was not returned had been
// avoided by a perfect index.
func (q *QueryStats) Benefit() float64 {
	return (1 - q.DDR()) * q.CPUSeconds
}

// IsDML reports whether the normalized statement mutates data.
func (q *QueryStats) IsDML() bool {
	switch q.Stmt.(type) {
	case *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
		return true
	}
	return false
}

// Monitor aggregates execution statistics per normalized query.
type Monitor struct {
	queries map[string]*QueryStats
	// byEntry is the query each template-cache entry folded into, by its ID:
	// a repeat costs a load and a compare, not a hash of the text. Two
	// entries may share a text, and a cache that starts over reuses an ID.
	byEntry []entryQuery
}

type entryQuery struct {
	e *engine.Entry
	q *QueryStats
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{queries: map[string]*QueryStats{}} }

// Observe ingests one execution of sql with what the engine returned for it.
func (m *Monitor) Observe(sql string, res *engine.Result) error {
	_, err := m.Ingest(res.Entry, res.Template, sql, &res.Stats, res.Stamp, res.UsedIndexes)
	return err
}

// RecordStmt ingests one execution of a parsed statement, without a plan.
func (m *Monitor) RecordStmt(stmt sqlparser.Statement, st exec.Stats) error {
	norm, _ := sqlparser.Normalize(stmt)
	_, err := m.Ingest(nil, norm, stmt.SQL(), &st, 0, nil)
	return err
}

// Ingest folds one execution of the statement sql into the statistics of its
// template norm (the text sqlparser.Normalize returns for it), given the
// template-cache entry it ran from (nil: none, and norm is parsed once, when
// first seen), the engine's stamp (0 = none) and the names of the indexes its
// plan read, and returns the template's statistics.
func (m *Monitor) Ingest(e *engine.Entry, norm, sql string, st *exec.Stats, stamp uint64, used []string) (q *QueryStats, err error) {
	if e != nil && e.ID < len(m.byEntry) && m.byEntry[e.ID].e == e {
		q = m.byEntry[e.ID].q
	} else {
		if q = m.queries[norm]; q == nil {
			q = &QueryStats{Normalized: norm, FirstSeen: len(m.queries)}
			if e != nil {
				q.Stmt = e.Stmt
			} else if q.Stmt, err = sqlparser.Parse(norm); err != nil {
				return nil, fmt.Errorf("workload: re-parse of normalized query failed: %v", err)
			}
			m.queries[norm] = q
		}
		if e != nil {
			for len(m.byEntry) <= e.ID {
				m.byEntry = append(m.byEntry, entryQuery{})
			}
			m.byEntry[e.ID] = entryQuery{e, q}
		}
	}
	q.Executions++
	q.CPUSeconds += st.CPUSeconds()
	q.RowsRead += st.RowsRead
	q.RowsSent += st.RowsSent
	for _, name := range used {
		if !slices.Contains(q.UsedIndexes, name) {
			q.UsedIndexes = append(q.UsedIndexes, name)
		}
	}
	if len(q.SampleSQL) < samplesKeep {
		q.SampleSQL = append(q.SampleSQL, sql)
		q.SampleStats = append(q.SampleStats, *st)
		q.SampleStamps = append(q.SampleStamps, stamp)
	} else {
		// Deterministic reservoir-ish rotation keeps recent variety.
		i := int(q.Executions) % samplesKeep
		q.SampleSQL[i], q.SampleStats[i], q.SampleStamps[i] = sql, *st, stamp
		if i == 0 {
			q.sample = nil
		}
	}
	return q, nil
}

// Queries returns all tracked normalized queries sorted by descending
// benefit.
func (m *Monitor) Queries() []*QueryStats {
	out := make([]*QueryStats, 0, len(m.queries))
	for _, q := range m.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i].Benefit(), out[j].Benefit()
		if bi != bj {
			return bi > bj
		}
		return out[i].Normalized < out[j].Normalized
	})
	return out
}

// Get returns the stats for a normalized query text, or nil.
func (m *Monitor) Get(normalized string) *QueryStats { return m.queries[normalized] }

// Len returns the number of distinct normalized queries.
func (m *Monitor) Len() int { return len(m.queries) }

// Reset clears all accumulated statistics (start of a new interval).
func (m *Monitor) Reset() { m.queries, m.byEntry = map[string]*QueryStats{}, nil }

// TotalCPUSeconds sums CPU across all queries — the denominator for
// fleet-level savings accounting.
func (m *Monitor) TotalCPUSeconds() float64 {
	t := 0.0
	for _, q := range m.queries {
		t += q.CPUSeconds
	}
	return t
}

// SelectionConfig tunes representative workload selection (§III-C).
type SelectionConfig struct {
	// MinExecutions weeds out spurious ad-hoc queries.
	MinExecutions int64
	// MinBenefit is the threshold on B (e.g. 1/20 of a CPU core over the
	// observation interval, i.e. 0.05 × Δt seconds).
	MinBenefit float64
	// TopK caps the number of queries selected; 0 = unlimited.
	TopK int
	// IncludeDML keeps DML statements in the workload so that index
	// maintenance costs are observed. DML is never *optimized* for reads,
	// but Eq. 8 needs it.
	IncludeDML bool
}

// DefaultSelection is the selection every tuning path runs. MinExecutions is
// 1: a tuning window is short, and a statement seen once in it is real
// traffic, not noise.
func DefaultSelection() SelectionConfig {
	return SelectionConfig{MinExecutions: 1, MinBenefit: 0, TopK: 50, IncludeDML: true}
}

// Representative selects the queries worth optimizing, ordered by expected
// benefit (Eq. 5). DML statements, when included, are appended after read
// queries regardless of benefit: they matter for maintenance accounting.
func (m *Monitor) Representative(cfg SelectionConfig) []*QueryStats {
	var reads, dml []*QueryStats
	for _, q := range m.Queries() {
		if q.Executions < cfg.MinExecutions {
			continue
		}
		if q.IsDML() {
			if cfg.IncludeDML {
				dml = append(dml, q)
			}
			continue
		}
		if q.Benefit() < cfg.MinBenefit {
			continue
		}
		reads = append(reads, q)
	}
	if cfg.TopK > 0 && len(reads) > cfg.TopK {
		reads = reads[:cfg.TopK]
	}
	return append(reads, dml...)
}
