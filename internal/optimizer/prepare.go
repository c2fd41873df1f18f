package optimizer

import (
	"fmt"
	"time"

	"aim/internal/catalog"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// PreparedCapacity bounds the templates the planner's memo keeps per
// database handle. A structural constant, not a knob: an entry is a few KB
// (the analysis and the path skeletons of one template), so a full memo stays
// in the low megabytes, and the widest workload in the repo (the benchmark's
// tune_wide) has about 190 templates.
const PreparedCapacity = 1024

// prepared is the parameter-independent half of planning one SELECT under one
// index configuration: the analysis of the statement, the per-instance atom
// bindings, and every access path skeleton the search can price, laid out in
// the order it will visit them. Nothing in it reads a parameter value or a
// statistic, so the memoised copy is shared by every execution of the
// template until the catalog changes. Immutable once built.
type prepared struct {
	schema  *catalog.Schema
	version uint64 // Schema.Version() read before anything else was
	sel     *sqlparser.Select
	info    *queryinfo.Info
	ctxs    []*instanceContext
	atoms   int  // selectivity slots taken by the instances' atoms
	grouped bool // the query aggregates
	// moves are the search's steps in visiting order: for one instance the
	// single move holding every path, bounded and unbounded; for several see
	// joinMoves (dp: moves are the Selinger DP's).
	moves []move
	dp    bool
}

// Valid reports whether the catalog is still the one prepare read (the
// memo's self-validation; see costcache.Validator). An entry that names a
// dropped index, or misses a new one, is stale the moment the DDL returns.
func (p *prepared) Valid() bool { return p.version == p.schema.Version() }

// prepare does everything planning sel needs that no parameter value
// changes.
func (o *Optimizer) prepare(sel *sqlparser.Select, extra []*catalog.Index, replace bool) (*prepared, error) {
	p := &prepared{schema: o.Schema, version: o.Schema.Version(), sel: sel}
	info, err := queryinfo.Analyze(sel, o.Schema)
	if err != nil {
		return nil, err
	}
	n := len(info.Layout.Instances)
	p.info = info
	p.grouped = len(sel.GroupBy) > 0 || len(info.Aggregates) > 0
	config := o.indexConfig(extra, replace)
	p.ctxs = make([]*instanceContext, n)
	for i := range p.ctxs {
		p.ctxs[i] = newInstanceContext(info, i, config, p.atoms)
		p.atoms += len(p.ctxs[i].allAtoms)
	}
	if n == 1 {
		// Also consider unbounded secondary-index scans: they can satisfy
		// ordering/grouping or serve covering reads.
		m := p.newMove(0, instSet{})
		for _, ix := range p.ctxs[0].indexes {
			m.skels = append(m.skels, p.ctxs[0].fullIndexSkel(ix))
		}
		p.moves = []move{m}
	} else {
		p.moves, p.dp = p.joinMoves(sel.StraightJoin)
	}
	return p, nil
}

// plan is the one way into planning: prepare, then choose. What-if costing
// (extra / replace configurations, placeholders unknown: nil params) and
// statements planned as written come with an empty key and keep nothing. An
// execution of a normalized template comes with the template's text as key:
// its prepared half is looked up, or built and kept, and the choice is made
// for this execution's params. Either way it is one optimizer call. UPDATE
// and DELETE plan the SELECT that locates their rows.
func (o *Optimizer) plan(key string, stmt sqlparser.Statement, extra []*catalog.Index, replace bool, params []sqltypes.Value) (*planned, error) {
	o.countCall()
	if o.mWhatIf != nil {
		defer func(t0 time.Time) { o.mWhatIf.Observe(time.Since(t0).Seconds()) }(time.Now())
	}
	if key != "" {
		if v, ok := o.memo.Get(key); ok {
			return o.choose(v.(*prepared), params), nil
		}
	}
	var sel *sqlparser.Select
	switch s := stmt.(type) {
	case *sqlparser.Select:
		sel = s
	case *sqlparser.Update:
		sel = whereToSelect(s.Table, s.Where)
	case *sqlparser.Delete:
		sel = whereToSelect(s.Table, s.Where)
	default:
		return nil, fmt.Errorf("optimizer: cannot plan %T", stmt)
	}
	p, err := o.prepare(sel, extra, replace)
	if err != nil {
		return nil, err
	}
	if key != "" {
		o.memo.Put(key, p)
	}
	return o.choose(p, params), nil
}
