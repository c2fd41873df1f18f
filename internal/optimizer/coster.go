package optimizer

import (
	"sort"
	"strings"

	"aim/internal/catalog"
	"aim/internal/costcache"
	"aim/internal/sqlparser"
)

// Coster memoizes what-if estimates under exact configurations for the
// length of one advisor run. DTA and Extend re-cost the whole workload per
// greedy move, so most of their (query, relevant-configuration) pairs repeat
// within a run; each run builds its own Coster and drops it at the end, so
// nothing has to invalidate it when statistics or the schema change. AIM
// costs through the Optimizer directly: its pairs repeat too rarely to pay
// for building a key per call (DESIGN.md). The key is the statement's rendered
// SQL plus the sorted keys of the configuration's *relevant* indexes (only
// indexes on tables the statement touches can change its plan), so a
// candidate index on another table never forces a re-plan. Callers must not
// mutate a returned Estimate or DMLEstimate, and the Index pointers inside a
// memoized plan may come from an earlier, equivalent configuration (compare
// by Index.Key, not pointer).
//
// Calls accounting: the optimizer's Calls() counter remains the *logical*
// what-if invocation count of §VIII(a) — on a hit the Coster replays the
// number of calls the memoized estimate originally consumed, so algorithm
// comparisons by optimizer-call volume are unaffected by memoization while
// wall-clock time is not.
type Coster struct {
	opt   *Optimizer
	cache *costcache.Cache
}

// NewCoster returns an empty memo over opt, bounded at
// costcache.DefaultCapacity estimates. It is safe for concurrent use.
func NewCoster(opt *Optimizer) *Coster {
	return &Coster{opt: opt, cache: costcache.NewCache(costcache.DefaultCapacity)}
}

// result memoizes one estimate (or its error).
type result[E any] struct {
	est E
	err error
}

// callsFor is the deterministic number of optimizer invocations one what-if
// request consumes: SELECTs and INSERTs plan once; UPDATE/DELETE plan their
// WHERE clause as a nested SELECT, consuming two.
func callsFor(stmt sqlparser.Statement) int64 {
	switch stmt.(type) {
	case *sqlparser.Update, *sqlparser.Delete:
		return 2
	default:
		return 1
	}
}

// stmtTables returns the lower-cased tables a statement touches; only
// indexes on these tables can influence its plan.
func stmtTables(stmt sqlparser.Statement) map[string]bool {
	out := map[string]bool{}
	switch s := stmt.(type) {
	case *sqlparser.Select:
		for _, tr := range s.Tables {
			out[strings.ToLower(tr.Name)] = true
		}
	case *sqlparser.Insert:
		out[strings.ToLower(s.Table)] = true
	case *sqlparser.Update:
		out[strings.ToLower(s.Table)] = true
	case *sqlparser.Delete:
		out[strings.ToLower(s.Table)] = true
	}
	return out
}

// key builds the memo key: the statement's rendered SQL (bound parameters
// render as literals, placeholders as '?') and the sorted catalog keys of
// the configuration's relevant indexes. A SELECT and a DML statement never
// render alike, so one cache holds both kinds of estimate.
func key(stmt sqlparser.Statement, config []*catalog.Index) string {
	tables := stmtTables(stmt)
	keys := make([]string, 0, len(config))
	seen := map[string]bool{}
	for _, ix := range config {
		if !tables[strings.ToLower(ix.Table)] {
			continue
		}
		k := ix.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return stmt.SQL() + "\x00" + strings.Join(keys, ";")
}

// memo returns the estimate of stmt under config from the cache, replaying
// its optimizer calls, or computes and keeps it.
func memo[S sqlparser.Statement, E any](cs *Coster, stmt S, config []*catalog.Index,
	compute func(S, []*catalog.Index) (E, error)) (E, error) {
	k := key(stmt, config)
	if v, ok := cs.cache.Get(k); ok {
		r := v.(*result[E])
		cs.opt.AddCalls(callsFor(stmt))
		return r.est, r.err
	}
	est, err := compute(stmt, config)
	cs.cache.Put(k, &result[E]{est: est, err: err})
	return est, err
}

// EstimateSelectConfig memoizes Optimizer.EstimateSelectConfig — cost(q, X)
// under exactly configuration X.
func (cs *Coster) EstimateSelectConfig(sel *sqlparser.Select, config []*catalog.Index) (*Estimate, error) {
	return memo(cs, sel, config, cs.opt.EstimateSelectConfig)
}

// EstimateDMLConfig memoizes Optimizer.EstimateDMLConfig.
func (cs *Coster) EstimateDMLConfig(stmt sqlparser.Statement, config []*catalog.Index) (*DMLEstimate, error) {
	return memo(cs, stmt, config, cs.opt.EstimateDMLConfig)
}
