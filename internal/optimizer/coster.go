package optimizer

import (
	"sort"
	"strings"

	"aim/internal/catalog"
	"aim/internal/costcache"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/sqlparser"
)

// Coster wraps an Optimizer's what-if entry points with a memo cache.
// Every advisor (AIM and the baselines) costs through a Coster, so repeated
// (query, relevant-configuration) pairs are planned once. Advisors re-cost
// the same pairs constantly — AIM's ranking re-costs every query's base
// configuration, DTA's greedy re-costs the whole workload per move — and
// CoPhy identifies this call volume as the scalability limit of index
// advisors. The key is a normalized query fingerprint plus the sorted
// fingerprint of the configuration's *relevant* indexes (only indexes on
// tables the statement touches can change its plan), so a candidate index on
// another table never forces a re-plan. Callers must not mutate a returned
// Estimate or DMLEstimate, and the Index pointers inside a cached plan may
// come from an earlier, equivalent configuration (compare by Index.Key, not
// pointer).
//
// Calls accounting: the optimizer's Calls() counter remains the *logical*
// what-if invocation count of §VIII(a) — on a cache hit the Coster replays
// the number of calls the memoized estimate originally consumed, so
// algorithm comparisons by optimizer-call volume are unaffected by caching
// while wall-clock time is not.
type Coster struct {
	Opt   *Optimizer
	cache *costcache.Cache
}

// NewCoster returns a Coster memoizing into a fresh cache of the given
// capacity (<= 0 selects costcache.DefaultCapacity).
func NewCoster(opt *Optimizer, capacity int) *Coster {
	return &Coster{Opt: opt, cache: costcache.NewCache(capacity)}
}

// CacheStats snapshots the underlying cache counters.
func (cs *Coster) CacheStats() costcache.Stats { return cs.cache.Stats() }

// SetObs attaches live cache metrics to the registry (nil detaches). See
// Cache.SetObs.
func (cs *Coster) SetObs(r *obs.Registry) { cs.cache.SetObs(r, "costcache.") }

// Invalidate drops all memoized estimates; the engine calls it whenever
// statistics or the materialized schema change.
func (cs *Coster) Invalidate() { cs.cache.Invalidate() }

// selResult memoizes one select estimate (or its error).
type selResult struct {
	est *Estimate
	err error
}

// dmlResult memoizes one DML estimate (or its error).
type dmlResult struct {
	est *DMLEstimate
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

// key builds the memo key: mode tag, the statement's rendered SQL (bound
// parameters render as literals, placeholders as '?'), and the sorted
// catalog keys of the configuration's relevant indexes.
func key(mode string, stmt sqlparser.Statement, config []*catalog.Index) string {
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
	var b strings.Builder
	b.WriteString(mode)
	b.WriteByte('\x00')
	b.WriteString(stmt.SQL())
	b.WriteByte('\x00')
	b.WriteString(strings.Join(keys, ";"))
	return b.String()
}

func (cs *Coster) selectVia(mode string, sel *sqlparser.Select, config []*catalog.Index,
	compute func() (*Estimate, error)) (*Estimate, error) {
	if cs == nil || cs.cache == nil {
		return compute()
	}
	k := key(mode, sel, config)
	// The "costcache.lookup" failpoint degrades a lookup into a forced
	// miss: the estimate is recomputed (identical result, so
	// recommendations are unaffected) instead of served from memory —
	// cache loss must never change what the advisor decides.
	if failpoint.Inject("costcache.lookup") == nil {
		if v, ok := cs.cache.Get(k); ok {
			r := v.(*selResult)
			cs.Opt.AddCalls(callsFor(sel))
			return r.est, r.err
		}
	}
	est, err := compute()
	cs.cache.Put(k, &selResult{est: est, err: err})
	return est, err
}

func (cs *Coster) dmlVia(mode string, stmt sqlparser.Statement, config []*catalog.Index,
	compute func() (*DMLEstimate, error)) (*DMLEstimate, error) {
	if cs == nil || cs.cache == nil {
		return compute()
	}
	k := key(mode, stmt, config)
	if failpoint.Inject("costcache.lookup") == nil {
		if v, ok := cs.cache.Get(k); ok {
			r := v.(*dmlResult)
			cs.Opt.AddCalls(callsFor(stmt))
			return r.est, r.err
		}
	}
	est, err := compute()
	cs.cache.Put(k, &dmlResult{est: est, err: err})
	return est, err
}

// EstimateSelectConfig memoizes Optimizer.EstimateSelectConfig — cost(q, X)
// under exactly configuration X, the advisors' hot path.
func (cs *Coster) EstimateSelectConfig(sel *sqlparser.Select, config []*catalog.Index) (*Estimate, error) {
	return cs.selectVia("sc", sel, config, func() (*Estimate, error) {
		return cs.Opt.EstimateSelectConfig(sel, config)
	})
}

// EstimateSelect memoizes Optimizer.EstimateSelect (materialized schema
// indexes plus extras). The engine invalidates the cache on any schema or
// statistics change, so the schema's index set needs no key component.
func (cs *Coster) EstimateSelect(sel *sqlparser.Select, extra []*catalog.Index) (*Estimate, error) {
	return cs.selectVia("ss", sel, extra, func() (*Estimate, error) {
		return cs.Opt.EstimateSelect(sel, extra)
	})
}

// EstimateDMLConfig memoizes Optimizer.EstimateDMLConfig.
func (cs *Coster) EstimateDMLConfig(stmt sqlparser.Statement, config []*catalog.Index) (*DMLEstimate, error) {
	return cs.dmlVia("dc", stmt, config, func() (*DMLEstimate, error) {
		return cs.Opt.EstimateDMLConfig(stmt, config)
	})
}

// EstimateDML memoizes Optimizer.EstimateDML.
func (cs *Coster) EstimateDML(stmt sqlparser.Statement, extra []*catalog.Index) (*DMLEstimate, error) {
	return cs.dmlVia("ds", stmt, extra, func() (*DMLEstimate, error) {
		return cs.Opt.EstimateDML(stmt, extra)
	})
}
