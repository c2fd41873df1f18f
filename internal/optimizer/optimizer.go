package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"aim/internal/catalog"
	"aim/internal/obs"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
)

// Optimizer plans queries and serves what-if cost estimates.
type Optimizer struct {
	Schema *catalog.Schema
	Stats  StatsProvider
	calls  int64

	// Observability handles (nil = disabled; see SetObs). Metrics record
	// planning behaviour only — they never influence plan choice.
	mWhatIf     *obs.Histogram // per-invocation planning latency (seconds)
	mJoinTables *obs.Histogram // join-order search width (tables per search)
	mJoinDP     *obs.Counter   // Selinger DP searches
	mJoinGreedy *obs.Counter   // greedy fallback searches (> dpLimit tables)
}

// SetObs attaches (nil registry: detaches) optimizer metrics:
// optimizer.whatif_seconds latency histogram, optimizer.join_tables search
// width histogram, and optimizer.join_{dp,greedy}_searches counters. Call
// before concurrent planning starts.
func (o *Optimizer) SetObs(r *obs.Registry) {
	if r == nil {
		o.mWhatIf, o.mJoinTables, o.mJoinDP, o.mJoinGreedy = nil, nil, nil, nil
		return
	}
	o.mWhatIf = r.Histogram("optimizer.whatif_seconds")
	o.mJoinTables = r.Histogram("optimizer.join_tables")
	o.mJoinDP = r.Counter("optimizer.join_dp_searches")
	o.mJoinGreedy = r.Counter("optimizer.join_greedy_searches")
}

// New returns an optimizer over the schema and statistics provider.
func New(schema *catalog.Schema, sp StatsProvider) *Optimizer {
	return &Optimizer{Schema: schema, Stats: sp}
}

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
	HasRange   bool
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

// UsedIndexKeys returns the catalog keys of the secondary indexes the plan
// reads.
func (e *Estimate) UsedIndexKeys() []string {
	var out []string
	for _, u := range e.Used {
		if u.Index != nil {
			out = append(out, u.Index.Key())
		}
	}
	return out
}

// indexConfigMode assembles the visible index configuration. With replace
// set, only the extra indexes are visible — the schema's materialized
// indexes are hidden, which is how advisors cost cost(q, ∅) and arbitrary
// candidate configurations.
func (o *Optimizer) indexConfigMode(extra []*catalog.Index, replace bool) *indexForTable {
	cfg := &indexForTable{}
	seen := map[string]bool{}
	if !replace {
		for _, ix := range o.Schema.Indexes() {
			if ix.Hypothetical {
				continue
			}
			cfg.list = append(cfg.list, ix)
			seen[ix.Key()] = true
		}
	}
	for _, ix := range extra {
		if !seen[ix.Key()] {
			cfg.list = append(cfg.list, ix)
			seen[ix.Key()] = true
		}
	}
	return cfg
}

// planned is the internal result of the planning search.
type planned struct {
	info   *queryinfo.Info
	join   *joinResult
	cost   float64
	rows   float64
	sorted bool // ORDER BY satisfied by the access order
	gOrder bool // GROUP BY satisfied by the access order
}

// planSelect runs the full planning search for a SELECT under the given
// index configuration.
func (o *Optimizer) planSelect(sel *sqlparser.Select, extra []*catalog.Index) (*planned, error) {
	return o.planSelectMode(sel, extra, false)
}

func (o *Optimizer) planSelectMode(sel *sqlparser.Select, extra []*catalog.Index, replace bool) (*planned, error) {
	o.countCall()
	if o.mWhatIf != nil {
		defer func(t0 time.Time) { o.mWhatIf.Observe(time.Since(t0).Seconds()) }(time.Now())
	}
	info, err := queryinfo.Analyze(sel, o.Schema)
	if err != nil {
		return nil, err
	}
	cfg := o.indexConfigMode(extra, replace)
	ctxs := make([]*instanceContext, len(info.Layout.Instances))
	for i := range ctxs {
		ctxs[i] = newInstanceContext(info, i)
	}

	grouped := len(sel.GroupBy) > 0 || len(info.Aggregates) > 0

	if len(ctxs) == 1 {
		return o.planSingleTable(sel, info, ctxs[0], cfg, grouped), nil
	}

	jr := o.searchJoinOrder(info, ctxs, cfg, sel.StraightJoin)
	p := &planned{info: info, join: jr, cost: jr.cost, rows: jr.rows}
	o.addPostJoinCosts(sel, info, p, grouped)
	return p, nil
}

// planSingleTable considers every access path with full query-shape costing
// (sort avoidance, stream grouping, LIMIT early termination).
func (o *Optimizer) planSingleTable(sel *sqlparser.Select, info *queryinfo.Info, ctx *instanceContext, cfg *indexForTable, grouped bool) *planned {
	ts := o.Stats.TableStats(ctx.table.Name)
	rows := float64(1)
	if ts != nil && ts.RowCount > 0 {
		rows = float64(ts.RowCount)
	}
	outSel := ctx.opaqueSel
	for _, a := range ctx.allAtoms {
		outSel *= atomSelectivity(a, ts)
	}

	paths := o.enumeratePaths(ctx, map[int]bool{}, cfg.forInstance(0))
	// Also consider unbounded secondary-index scans: they can satisfy
	// ordering/grouping or serve covering reads.
	for _, ix := range cfg.forInstance(0) {
		if !strings.EqualFold(ix.Table, ctx.table.Name) {
			continue
		}
		paths = append(paths, o.fullIndexPath(ctx, ix, ts, rows, outSel))
	}

	var best *planned
	for _, ap := range paths {
		p := &planned{
			info: info,
			join: &joinResult{order: []int{0}, paths: []*accessPath{ap}},
			rows: ap.outRows,
		}
		cost := ap.probeCost
		p.sorted = orderSatisfiedBy(ap, info)
		p.gOrder = groupOrderedBy(ap, info)

		// LIMIT early termination scaling.
		if sel.Limit >= 0 && !grouped && !sel.Distinct && (len(info.OrderBy) == 0 || p.sorted) && ap.outRows > 0 {
			target := float64(sel.Limit + sel.Offset)
			if f := target / ap.outRows; f < 1 {
				cost *= f
				if cost < costPage {
					cost = costPage
				}
			}
		}
		p.cost = cost
		o.addShapeCosts(sel, info, p, grouped)
		if best == nil || p.cost < best.cost {
			best = p
		}
	}
	return best
}

// addPostJoinCosts applies sort/group costs for multi-table plans, where
// the access order is only credited for the first step's table.
func (o *Optimizer) addPostJoinCosts(sel *sqlparser.Select, info *queryinfo.Info, p *planned, grouped bool) {
	first := p.join.paths[0]
	firstInst := p.join.order[0]
	p.sorted = len(info.OrderBy) > 0 && allOnInstance(info.OrderBy, firstInst) && orderSatisfiedBy(first, info)
	p.gOrder = len(info.GroupBy) > 0 && allOnInstance(info.GroupBy, firstInst) && groupOrderedBy(first, info)
	o.addShapeCosts(sel, info, p, grouped)
}

func allOnInstance(cols []queryinfo.OrderColumn, inst int) bool {
	for _, c := range cols {
		if c.Instance != inst {
			return false
		}
	}
	return true
}

// addShapeCosts folds grouping / distinct / sorting costs into p.cost and
// adjusts the output row estimate.
func (o *Optimizer) addShapeCosts(sel *sqlparser.Select, info *queryinfo.Info, p *planned, grouped bool) {
	inputRows := p.rows
	outRows := inputRows
	if grouped {
		if len(sel.GroupBy) == 0 {
			outRows = 1
		} else {
			groups := o.estimateGroups(info, inputRows)
			outRows = groups
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

func (o *Optimizer) estimateGroups(info *queryinfo.Info, inputRows float64) float64 {
	// Distinct combinations of the group columns, capped by input rows.
	groups := 1.0
	for _, g := range info.GroupBy {
		ts := o.Stats.TableStats(info.Layout.Instances[g.Instance].Table.Name)
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
func orderSatisfiedBy(ap *accessPath, info *queryinfo.Info) bool {
	if len(info.OrderBy) == 0 || len(info.OrderBy) != len(info.Select.OrderBy) {
		return false
	}
	eqBound := eqBoundSet(ap)
	// Order columns bound to constants are trivially ordered; drop them.
	var need []queryinfo.OrderColumn
	for _, oc := range info.OrderBy {
		if oc.Desc {
			return false
		}
		if !eqBound[oc.Column] {
			need = append(need, oc)
		}
	}
	pos := 0
	for _, oc := range need {
		matched := false
		for pos < len(ap.indexKey) {
			col := strings.ToLower(ap.indexKey[pos])
			if col == oc.Column {
				matched = true
				pos++
				break
			}
			if eqBound[col] {
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
func groupOrderedBy(ap *accessPath, info *queryinfo.Info) bool {
	if len(info.GroupBy) == 0 || len(info.GroupBy) != len(info.Select.GroupBy) {
		return false
	}
	eqBound := eqBoundSet(ap)
	need := map[string]bool{}
	for _, gc := range info.GroupBy {
		if !eqBound[gc.Column] {
			need[gc.Column] = true
		}
	}
	pos := 0
	for len(need) > 0 && pos < len(ap.indexKey) {
		col := strings.ToLower(ap.indexKey[pos])
		if need[col] {
			delete(need, col)
			pos++
			continue
		}
		if eqBound[col] {
			pos++
			continue
		}
		break
	}
	return len(need) == 0
}

// eqBoundSet returns the columns bound by equality in the path's prefix.
func eqBoundSet(ap *accessPath) map[string]bool {
	out := map[string]bool{}
	for i, e := range ap.eq {
		col := strings.ToLower(ap.indexKey[i])
		_ = e
		out[col] = true
	}
	return out
}

// EstimateSelect costs a SELECT under the schema's materialized indexes
// plus the extra (typically hypothetical) indexes. The statement may contain
// placeholders; shape-only default selectivities apply to them.
func (o *Optimizer) EstimateSelect(sel *sqlparser.Select, extra []*catalog.Index) (*Estimate, error) {
	p, err := o.planSelect(sel, extra)
	if err != nil {
		return nil, err
	}
	return o.estimateFromPlanned(p), nil
}

// EstimateSelectConfig costs a SELECT under exactly the given index
// configuration, hiding the schema's materialized indexes. Advisors use it
// for cost(q, X) with arbitrary X, including X = ∅.
func (o *Optimizer) EstimateSelectConfig(sel *sqlparser.Select, config []*catalog.Index) (*Estimate, error) {
	p, err := o.planSelectMode(sel, config, true)
	if err != nil {
		return nil, err
	}
	return o.estimateFromPlanned(p), nil
}

func (o *Optimizer) estimateFromPlanned(p *planned) *Estimate {
	est := &Estimate{Cost: p.cost, Rows: p.rows}
	ts := func(name string) float64 {
		s := o.Stats.TableStats(name)
		if s == nil || s.RowCount == 0 {
			return 1
		}
		return float64(s.RowCount)
	}
	for i, ap := range p.join.paths {
		inst := p.join.order[i]
		table := p.info.Layout.Instances[inst].Table
		rows := ts(table.Name)
		u := UsedIndex{
			Instance:   inst,
			Index:      ap.index,
			EqLen:      len(ap.eq),
			HasRange:   ap.rng != nil || ap.inAtom != nil,
			Covering:   ap.covering,
			EstEntries: rows * ap.entrySel,
			EstLookups: 0,
		}
		if ap.index != nil && !ap.covering {
			u.EstLookups = rows * ap.lookupSel
		}
		est.Used = append(est.Used, u)
		est.Desc = append(est.Desc, ap.Desc(p.info.Layout.Instances[inst].Alias))
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
	cfg := o.indexConfigMode(extra, replace)

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
		for _, ix := range cfg.list {
			if strings.EqualFold(ix.Table, s.Table) {
				out.IndexMaintenance[ix.Key()] += n * perEntryWrite(s.Table)
			}
		}
		return out, nil
	case *sqlparser.Update:
		sel := whereToSelect(s.Table, s.Where)
		p, err := o.planSelectMode(sel, extra, replace)
		if err != nil {
			return nil, err
		}
		out.Rows = p.rows
		out.BaseCost = p.cost + p.rows*costRowWrite
		setCols := map[string]bool{}
		for _, a := range s.Set {
			setCols[strings.ToLower(a.Column)] = true
		}
		for _, ix := range cfg.list {
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
		sel := whereToSelect(s.Table, s.Where)
		p, err := o.planSelectMode(sel, extra, replace)
		if err != nil {
			return nil, err
		}
		out.Rows = p.rows
		out.BaseCost = p.cost + p.rows*costRowWrite
		for _, ix := range cfg.list {
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
