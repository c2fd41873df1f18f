package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"aim/internal/catalog"
	"aim/internal/costcache"
	"aim/internal/obs"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// Optimizer plans queries and serves what-if cost estimates.
type Optimizer struct {
	Schema *catalog.Schema
	Stats  StatsProvider
	// memo keeps the parameter-independent half of planning per normalized
	// template (PlanSelect, PlanDML; PreparedCapacity entries); entries
	// validate themselves against Schema.Version. Each handle has its own: a
	// clone starts cold.
	memo  *costcache.Cache
	calls int64

	// Observability handles (nil = disabled; see SetObs). Metrics record
	// planning behaviour only — they never influence plan choice.
	mWhatIf     *obs.Histogram          // per-invocation planning latency (seconds)
	mJoinTables *obs.Histogram          // join-order search width (tables per search)
	mJoinDP     *obs.Counter            // Selinger DP searches
	mJoinGreedy *obs.Counter            // greedy fallback searches (> dpLimit tables)
	mBypass     map[string]*obs.Counter // statements planned as written, by sqlparser.Bypass* reason
}

// SetObs attaches (nil registry: detaches) optimizer metrics:
// optimizer.whatif_seconds latency histogram, optimizer.join_tables search
// width histogram, optimizer.join_{dp,greedy}_searches counters, the memo's
// optimizer.prepared_{hits,misses,evictions,entries} and one
// optimizer.prepared_bypass.<reason> counter per sqlparser.BypassReasons.
// Call before concurrent planning starts.
func (o *Optimizer) SetObs(r *obs.Registry) {
	o.memo.SetObs(r, "optimizer.prepared_")
	if r == nil {
		o.mWhatIf, o.mJoinTables, o.mJoinDP, o.mJoinGreedy, o.mBypass = nil, nil, nil, nil, nil
		return
	}
	o.mWhatIf = r.Histogram("optimizer.whatif_seconds")
	o.mJoinTables = r.Histogram("optimizer.join_tables")
	o.mJoinDP = r.Counter("optimizer.join_dp_searches")
	o.mJoinGreedy = r.Counter("optimizer.join_greedy_searches")
	o.mBypass = map[string]*obs.Counter{}
	for _, reason := range sqlparser.BypassReasons {
		o.mBypass[reason] = r.Counter("optimizer.prepared_bypass." + reason)
	}
}

// CountBypass records a statement that is planned as written, outside the
// memo, for reason (one of sqlparser.BypassReasons).
func (o *Optimizer) CountBypass(reason string) { o.mBypass[reason].Inc() }

// New returns an optimizer over the schema and statistics provider.
func New(schema *catalog.Schema, sp StatsProvider) *Optimizer {
	return &Optimizer{Schema: schema, Stats: sp, memo: costcache.NewCache(PreparedCapacity)}
}

// PreparedStats snapshots the template memo's counters.
func (o *Optimizer) PreparedStats() costcache.Stats { return o.memo.Stats() }

// Calls returns the number of optimizer invocations (plan/estimate calls)
// made so far. Index advisors are compared on this, per §VIII(a).
func (o *Optimizer) Calls() int64 { return atomic.LoadInt64(&o.calls) }

// AddCalls adds n logical invocations to the counter. The cost cache uses
// it to replay the calls a memoized estimate originally consumed, so that
// Calls() stays the §VIII(a) what-if invocation count independent of
// caching.
func (o *Optimizer) AddCalls(n int64) { atomic.AddInt64(&o.calls, n) }

func (o *Optimizer) countCall() { atomic.AddInt64(&o.calls, 1) }

// UsedIndex describes one access decision inside a plan.
type UsedIndex struct {
	Instance   int
	Index      *catalog.Index // nil = clustered access
	EqLen      int
	Covering   bool
	EstEntries float64 // index entries / rows scanned
	EstLookups float64 // primary-key lookups (disk seeks)
}

// Estimate is a what-if costing result.
type Estimate struct {
	Cost float64
	Rows float64
	Used []UsedIndex
	Desc []string
}

// indexConfig assembles the visible index configuration. With replace set,
// only the extra indexes are visible — the schema's materialized indexes are
// hidden, which is how advisors cost cost(q, ∅) and arbitrary candidate
// configurations.
func (o *Optimizer) indexConfig(extra []*catalog.Index, replace bool) []*catalog.Index {
	var list []*catalog.Index
	if !replace {
		for _, ix := range o.Schema.Indexes() {
			if !ix.Hypothetical {
				list = append(list, ix)
			}
		}
	}
next:
	for _, ix := range extra {
		for _, have := range list {
			if have.Equal(ix) {
				continue next
			}
		}
		list = append(list, ix)
	}
	return list
}

// planned is the result of the planning search for one execution.
type planned struct {
	*prepared
	join   *joinResult
	cost   float64
	rows   float64
	sorted bool // ORDER BY satisfied by the access order
	gOrder bool // GROUP BY satisfied by the access order
}

// choose is the parameter-dependent half of planning: it prices what prepare
// enumerated under the current statistics and the bound values, with the float
// operations of a from-scratch search in their order, and picks the access
// path or join order.
func (o *Optimizer) choose(p *prepared, params []sqltypes.Value) *planned {
	c := o.newChooser(p, params)
	if len(p.ctxs) == 1 {
		return c.planSingleTable()
	}
	jr := c.searchJoinOrder()
	// The access order is only credited for the first step's table.
	out := &planned{prepared: p, join: jr, cost: jr.cost, rows: jr.rows,
		sorted: jr.paths[0].sorted, gOrder: jr.paths[0].gOrder}
	c.addShapeCosts(out)
	return out
}

// planSingleTable considers every access path with full query-shape costing
// (sort avoidance, stream grouping, LIMIT early termination).
func (c *chooser) planSingleTable() *planned {
	sel := c.p.sel
	var best planned
	var bestAP accessPath
	for i, sk := range c.p.moves[0].skels {
		ap := c.price(sk)
		cur := planned{prepared: c.p, rows: ap.outRows, cost: ap.probeCost, sorted: sk.sorted, gOrder: sk.gOrder}
		// LIMIT early termination scaling.
		if sel.Limit >= 0 && !c.p.grouped && !sel.Distinct && (len(c.p.info.OrderBy) == 0 || cur.sorted) && ap.outRows > 0 {
			target := float64(sel.Limit + sel.Offset)
			if f := target / ap.outRows; f < 1 {
				cur.cost *= f
				if cur.cost < costPage {
					cur.cost = costPage
				}
			}
		}
		c.addShapeCosts(&cur)
		if i == 0 || cur.cost < best.cost {
			best, bestAP = cur, ap
		}
	}
	best.join = &joinResult{order: fromOrder, paths: []accessPath{bestAP}}
	return &best
}

// fromOrder is the join order of every single-table plan (read-only).
var fromOrder = []int{0}

// addShapeCosts folds grouping / distinct / sorting costs into p.cost and
// adjusts the output row estimate.
func (c *chooser) addShapeCosts(p *planned) {
	sel := p.sel
	inputRows := p.rows
	outRows := inputRows
	if p.grouped {
		if len(sel.GroupBy) == 0 {
			outRows = 1
		} else {
			outRows = c.estimateGroups(inputRows)
		}
		if p.gOrder {
			p.cost += inputRows * costSortRow * 0.1 // streaming aggregation
		} else {
			p.cost += inputRows * costSortRow // hash aggregation
		}
	}
	if sel.Distinct {
		p.cost += outRows * costSortRow
	}
	if len(sel.OrderBy) > 0 && !p.sorted {
		n := outRows
		if n > 1 {
			p.cost += n * log2f(n) * costSortRow
		}
	}
	if sel.Limit >= 0 && float64(sel.Limit) < outRows {
		outRows = float64(sel.Limit)
	}
	p.rows = outRows
}

func (c *chooser) estimateGroups(inputRows float64) float64 {
	// Distinct combinations of the group columns, capped by input rows.
	groups := 1.0
	for _, g := range c.p.info.GroupBy {
		ts := c.inst[g.Instance].ts
		if ts == nil {
			continue
		}
		if cs := ts.Column(g.Column); cs != nil && cs.NDV > 0 {
			groups *= float64(cs.NDV)
		}
	}
	if groups > inputRows {
		groups = inputRows
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

func log2f(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

// orderSatisfiedBy reports whether the access path delivers rows in the
// query's ORDER BY order (all-ascending only; the executor has no reverse
// scans).
func orderSatisfiedBy(sk *pathSkel, info *queryinfo.Info) bool {
	if len(info.OrderBy) == 0 || len(info.OrderBy) != len(info.Select.OrderBy) {
		return false
	}
	pos := 0
	for _, oc := range info.OrderBy {
		if oc.Desc {
			return false
		}
		// Order columns bound to constants are trivially ordered; drop them.
		if sk.eqBound(oc.Column) {
			continue
		}
		matched := false
		for pos < len(sk.indexKey) {
			col := strings.ToLower(sk.indexKey[pos])
			if col == oc.Column {
				matched = true
				pos++
				break
			}
			if sk.eqBound(col) {
				pos++
				continue
			}
			break
		}
		if !matched {
			return false
		}
	}
	return true
}

// groupOrderedBy reports whether the access path delivers rows clustered by
// the GROUP BY columns (any permutation of a key prefix after constants).
func groupOrderedBy(sk *pathSkel, info *queryinfo.Info) bool {
	if len(info.GroupBy) == 0 || len(info.GroupBy) != len(info.Select.GroupBy) {
		return false
	}
	need := map[string]bool{}
	for _, gc := range info.GroupBy {
		if !sk.eqBound(gc.Column) {
			need[gc.Column] = true
		}
	}
	pos := 0
	for len(need) > 0 && pos < len(sk.indexKey) {
		col := strings.ToLower(sk.indexKey[pos])
		if need[col] {
			delete(need, col)
			pos++
			continue
		}
		if sk.eqBound(col) {
			pos++
			continue
		}
		break
	}
	return len(need) == 0
}

// eqBound reports whether col is bound by equality in the path's prefix.
func (sk *pathSkel) eqBound(col string) bool {
	for i := range sk.eq {
		if strings.EqualFold(sk.indexKey[i], col) {
			return true
		}
	}
	return false
}

// EstimateSelect costs a SELECT under the schema's materialized indexes
// plus the extra (typically hypothetical) indexes. The statement may contain
// placeholders; shape-only default selectivities apply to them.
func (o *Optimizer) EstimateSelect(sel *sqlparser.Select, extra []*catalog.Index) (*Estimate, error) {
	p, err := o.plan("", sel, extra, false, nil)
	if err != nil {
		return nil, err
	}
	return estimateFromPlanned(p), nil
}

// EstimateSelectConfig costs a SELECT under exactly the given index
// configuration, hiding the schema's materialized indexes. Advisors use it
// for cost(q, X) with arbitrary X, including X = ∅.
func (o *Optimizer) EstimateSelectConfig(sel *sqlparser.Select, config []*catalog.Index) (*Estimate, error) {
	p, err := o.plan("", sel, config, true, nil)
	if err != nil {
		return nil, err
	}
	return estimateFromPlanned(p), nil
}

func estimateFromPlanned(p *planned) *Estimate {
	est := &Estimate{Cost: p.cost, Rows: p.rows}
	for i, ap := range p.join.paths {
		u := UsedIndex{
			Instance:   p.join.order[i],
			Index:      ap.index,
			EqLen:      len(ap.eq),
			Covering:   ap.covering,
			EstEntries: ap.rows * ap.entrySel,
			EstLookups: 0,
		}
		if ap.index != nil && !ap.covering {
			u.EstLookups = ap.rows * ap.lookupSel
		}
		est.Used = append(est.Used, u)
		est.Desc = append(est.Desc, ap.desc)
	}
	return est
}

// DMLEstimate is the cost breakdown for a DML statement under a
// configuration: the base cost of locating and mutating rows, plus the
// per-index maintenance overhead cost_u(q, i) of Eq. 8.
type DMLEstimate struct {
	BaseCost float64
	Rows     float64 // estimated affected rows
	// IndexMaintenance maps catalog.Index.Key() -> added maintenance cost.
	IndexMaintenance map[string]float64
}

// TotalCost returns base plus all maintenance costs. The sum runs in sorted
// key order so the float fold is bit-identical across runs (map iteration
// order would otherwise leak into advisor output at ULP granularity).
func (d *DMLEstimate) TotalCost() float64 {
	keys := make([]string, 0, len(d.IndexMaintenance))
	for k := range d.IndexMaintenance {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := d.BaseCost
	for _, k := range keys {
		t += d.IndexMaintenance[k]
	}
	return t
}

// EstimateDML costs INSERT/UPDATE/DELETE statements, attributing index
// maintenance per index (materialized schema indexes plus extras).
func (o *Optimizer) EstimateDML(stmt sqlparser.Statement, extra []*catalog.Index) (*DMLEstimate, error) {
	return o.estimateDMLMode(stmt, extra, false)
}

// EstimateDMLConfig costs a DML statement under exactly the given index
// configuration, hiding the schema's materialized indexes.
func (o *Optimizer) EstimateDMLConfig(stmt sqlparser.Statement, config []*catalog.Index) (*DMLEstimate, error) {
	return o.estimateDMLMode(stmt, config, true)
}

func (o *Optimizer) estimateDMLMode(stmt sqlparser.Statement, extra []*catalog.Index, replace bool) (*DMLEstimate, error) {
	o.countCall()
	out := &DMLEstimate{IndexMaintenance: map[string]float64{}}
	cfg := o.indexConfig(extra, replace)

	perEntryWrite := func(table string) float64 {
		ts := o.Stats.TableStats(table)
		rows := 1.0
		if ts != nil && ts.RowCount > 0 {
			rows = float64(ts.RowCount)
		}
		return treeHeight(rows)*costPage + costIndexWrite
	}

	switch s := stmt.(type) {
	case *sqlparser.Insert:
		tbl := o.Schema.Table(s.Table)
		if tbl == nil {
			return nil, fmt.Errorf("optimizer: unknown table %q", s.Table)
		}
		n := float64(len(s.Rows))
		if n == 0 {
			n = 1
		}
		out.Rows = n
		out.BaseCost = n * (perEntryWrite(s.Table) + costRowWrite)
		for _, ix := range cfg {
			if strings.EqualFold(ix.Table, s.Table) {
				out.IndexMaintenance[ix.Key()] += n * perEntryWrite(s.Table)
			}
		}
		return out, nil
	case *sqlparser.Update:
		p, err := o.plan("", s, extra, replace, nil)
		if err != nil {
			return nil, err
		}
		out.Rows = p.rows
		out.BaseCost = p.cost + p.rows*costRowWrite
		setCols := map[string]bool{}
		for _, a := range s.Set {
			setCols[strings.ToLower(a.Column)] = true
		}
		for _, ix := range cfg {
			if !strings.EqualFold(ix.Table, s.Table) {
				continue
			}
			touched := false
			for _, c := range ix.Columns {
				if setCols[strings.ToLower(c)] {
					touched = true
					break
				}
			}
			if touched {
				// Entry delete + insert.
				out.IndexMaintenance[ix.Key()] += p.rows * 2 * perEntryWrite(s.Table)
			}
		}
		return out, nil
	case *sqlparser.Delete:
		p, err := o.plan("", s, extra, replace, nil)
		if err != nil {
			return nil, err
		}
		out.Rows = p.rows
		out.BaseCost = p.cost + p.rows*costRowWrite
		for _, ix := range cfg {
			if strings.EqualFold(ix.Table, s.Table) {
				out.IndexMaintenance[ix.Key()] += p.rows * perEntryWrite(s.Table)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("optimizer: EstimateDML on %T", stmt)
	}
}

// whereToSelect wraps a DML WHERE clause as a single-table SELECT for
// planning and cardinality estimation.
func whereToSelect(table string, where sqlparser.Expr) *sqlparser.Select {
	return &sqlparser.Select{
		Exprs:  []*sqlparser.SelectExpr{{Star: true}},
		Tables: []*sqlparser.TableRef{{Name: table}},
		Where:  where,
		Limit:  -1,
	}
}
