package exec

import (
	"errors"
	"sort"
	"sync"

	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// errStop aborts the join pipeline once a LIMIT target is reached.
var errStop = errors.New("exec: early stop")

// Executor runs physical plans against a store.
type Executor struct {
	Store *storage.Store
	m     *execMetrics // nil when observability is off
	// arenas recycles batch scratch buffers (row views, selection vectors,
	// tri-state predicate lanes, env-row slabs) across runs; a run takes one
	// per plan step.
	arenas sync.Pool
}

// New returns an executor over the store.
func New(store *storage.Store) *Executor { return &Executor{Store: store} }

// Result is the output of a SELECT execution.
type Result struct {
	Columns []string
	Rows    []sqltypes.Row
	Stats   Stats
}

// rowTarget is the number of pipeline rows after which execution can stop:
// when no sort, grouping or dedup reorders rows, LIMIT ends the pipeline as
// soon as LIMIT+OFFSET rows are produced. -1 means the pipeline runs dry.
func (p *Plan) rowTarget() int64 {
	if !p.Grouped && !p.Distinct && p.Limit >= 0 && (len(p.OrderBy) == 0 || p.OrderSatisfied) {
		return p.Limit + p.Offset
	}
	return -1
}

// Run executes a SELECT plan on the batch driver (vec.go).
func (e *Executor) Run(p *Plan, columns []string) (*Result, error) {
	res := &Result{Columns: columns}
	if p.Limit == 0 {
		// Nothing can be returned, so nothing is read: no scan is opened and
		// the monitor books zero work for the statement.
		return e.finish(p, nil, res)
	}
	var sink rowSink = newBatchProjector(p)
	if p.Grouped {
		sink = newBatchAggSink(p)
	}
	if err := e.drive(p, sink, p.rowTarget(), &res.Stats); err != nil {
		return nil, err
	}
	outRows, err := sink.finishRows()
	if err != nil {
		return nil, err
	}
	return e.finish(p, outRows, res)
}

// finish applies the result tail — DISTINCT, ORDER BY, LIMIT/OFFSET,
// hidden-column trimming — and records stats.
func (e *Executor) finish(p *Plan, outRows []sqltypes.Row, res *Result) (*Result, error) {
	if p.Distinct {
		outRows = distinctRows(outRows, p.HiddenTail, &res.Stats)
	}
	if len(p.OrderBy) > 0 && !p.OrderSatisfied {
		res.Stats.SortRows += int64(len(outRows))
		sortRows(outRows, p.OrderBy)
	}
	outRows = applyLimit(outRows, p.Limit, p.Offset)
	if p.HiddenTail > 0 {
		for i, r := range outRows {
			outRows[i] = r[:len(r)-p.HiddenTail]
		}
	}
	res.Rows = outRows
	res.Stats.RowsSent = int64(len(outRows))
	e.record(res.Stats)
	return res, nil
}

// keyBuf holds the encoded bounds of one step's scans. A step reuses it for
// every scan it opens, so an inner step's keys cost no allocation per outer
// row.
type keyBuf struct{ lo, hi []byte }

// scanBounds builds encoded byte bounds from the equality prefix and the
// optional range on the following column, into b. The returned hiInc is real:
// an inclusive upper bound relies on the B+tree's prefix-inclusive bound
// semantics (keys equal to hi or extending it stay in range), which admits
// exactly the composite keys whose bounded columns match — no artificial
// 0xFF successor byte is appended. empty marks a scan statically proven to
// match nothing: a NULL range bound makes the comparison predicate NULL for
// every row, so the caller skips the scan outright instead of walking keys
// the residual filter would discard one by one.
func (b *keyBuf) scanBounds(prefix []sqltypes.Value, rng *RangeSpec, env []sqltypes.Value) (lo, hi []byte, hiInc, empty bool) {
	base := sqltypes.EncodeKey(b.lo[:0], prefix...)
	b.lo = base
	if rng == nil {
		if len(prefix) == 0 {
			return nil, nil, false, false // full scan
		}
		// Prefix-only: every key extending base.
		return base, base, true, false
	}
	lo = base
	if rng.Lo != nil {
		v := rng.Lo.Resolve(env)
		if v.IsNull() {
			return nil, nil, false, true
		}
		// Appended in place: base stays intact as lo's prefix.
		lo = sqltypes.EncodeKey(base, v)
		if !rng.LoInc {
			// Exclusive lower bound: skip every key extending lo. 0xFF sorts
			// after any value-encoding continuation byte (tags are <= 0x02),
			// so lo+0xFF lands past the last key whose bounded column equals
			// the bound and before the next column value's first key.
			lo = append(lo, 0xFF)
		}
		b.lo = lo
	}
	if rng.Hi != nil {
		v := rng.Hi.Resolve(env)
		if v.IsNull() {
			return nil, nil, false, true
		}
		b.hi = sqltypes.EncodeKey(append(b.hi[:0], base...), v)
		hi, hiInc = b.hi, rng.HiInc
	} else if len(base) > 0 {
		hi, hiInc = base, true
	}
	return lo, hi, hiInc, false
}

func passes(f CompiledExpr, env []sqltypes.Value) (bool, error) {
	if f == nil {
		return true, nil
	}
	v, err := f(env)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

// aggregator implements hash (or streaming) group-by aggregation.
type aggregator struct {
	p      *Plan
	groups map[string]*groupState
	order  []string // insertion order for deterministic output
	// streaming state
	stream   bool
	curKey   []byte
	curState *groupState
	flushed  []sqltypes.Row
}

type groupState struct {
	rep    sqltypes.Row // representative env row for non-aggregate outputs
	counts []int64
	sums   []float64
	mins   []sqltypes.Value
	maxs   []sqltypes.Value
}

func newAggregator(p *Plan) *aggregator {
	return &aggregator{p: p, groups: map[string]*groupState{}, stream: p.GroupOrdered}
}

func (a *aggregator) newState(env []sqltypes.Value) *groupState {
	n := len(a.p.Aggs)
	rep := make(sqltypes.Row, len(env))
	copy(rep, env)
	return &groupState{
		rep:    rep,
		counts: make([]int64, n),
		sums:   make([]float64, n),
		mins:   make([]sqltypes.Value, n),
		maxs:   make([]sqltypes.Value, n),
	}
}

func (a *aggregator) absorb(env []sqltypes.Value) error {
	var keyBytes []byte
	if len(a.p.GroupBy) > 0 {
		keyVals := make([]sqltypes.Value, len(a.p.GroupBy))
		for i, g := range a.p.GroupBy {
			v, err := g(env)
			if err != nil {
				return err
			}
			keyVals[i] = v
		}
		keyBytes = sqltypes.EncodeKey(nil, keyVals...)
	}
	gs, err := a.state(keyBytes, env)
	if err != nil {
		return err
	}
	for i, spec := range a.p.Aggs {
		var v sqltypes.Value
		if spec.Arg != nil {
			var err error
			v, err = spec.Arg(env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue // aggregates skip NULLs
			}
		}
		gs.add(i, spec.Func, &v)
	}
	return nil
}

// state returns the group state for the encoded key, creating it (and, in
// streaming mode, flushing the previous group) on first sight. Both the
// per-row absorb and the batch fast path route through here, so group
// identity, insertion order and stream flushing have a single definition.
func (a *aggregator) state(keyBytes []byte, env []sqltypes.Value) (*groupState, error) {
	if a.stream {
		if a.curState != nil && string(a.curKey) == string(keyBytes) {
			return a.curState, nil
		}
		if a.curState != nil {
			row, err := a.emitGroup(a.curState)
			if err != nil {
				return nil, err
			}
			a.flushed = append(a.flushed, row)
		}
		gs := a.newState(env)
		a.curState = gs
		a.curKey = append(a.curKey[:0], keyBytes...)
		return gs, nil
	}
	gs, ok := a.groups[string(keyBytes)]
	if !ok {
		gs = a.newState(env)
		a.groups[string(keyBytes)] = gs
		a.order = append(a.order, string(keyBytes))
	}
	return gs, nil
}

// add folds one non-NULL value (ignored for COUNT) into aggregate slot i.
// v is by pointer purely so hot loops avoid a Value copy per call; it is
// never mutated.
func (gs *groupState) add(i int, f AggFunc, v *sqltypes.Value) {
	switch f {
	case AggCount:
		gs.counts[i]++
	case AggSum, AggAvg:
		gs.counts[i]++
		gs.sums[i] += v.Float()
	case AggMin:
		if gs.counts[i] == 0 || sqltypes.ComparePtr(v, &gs.mins[i]) < 0 {
			gs.mins[i] = *v
		}
		gs.counts[i]++
	case AggMax:
		if gs.counts[i] == 0 || sqltypes.ComparePtr(v, &gs.maxs[i]) > 0 {
			gs.maxs[i] = *v
		}
		gs.counts[i]++
	}
}

func (a *aggregator) emitGroup(gs *groupState) (sqltypes.Row, error) {
	row := make(sqltypes.Row, len(a.p.Output))
	for i, o := range a.p.Output {
		if o.Agg >= 0 {
			row[i] = aggResult(a.p.Aggs[o.Agg], gs, o.Agg)
			continue
		}
		v, err := o.Expr(gs.rep)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func aggResult(spec AggSpec, gs *groupState, i int) sqltypes.Value {
	switch spec.Func {
	case AggCount:
		return sqltypes.NewInt(gs.counts[i])
	case AggSum:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return sqltypes.Float64ToValue(gs.sums[i])
	case AggAvg:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(gs.sums[i] / float64(gs.counts[i]))
	case AggMin:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return gs.mins[i]
	case AggMax:
		if gs.counts[i] == 0 {
			return sqltypes.Null
		}
		return gs.maxs[i]
	}
	return sqltypes.Null
}

func (a *aggregator) finish() ([]sqltypes.Row, error) {
	if a.stream {
		if a.curState != nil {
			row, err := a.emitGroup(a.curState)
			if err != nil {
				return nil, err
			}
			a.flushed = append(a.flushed, row)
		}
		return a.flushed, nil
	}
	// A grouped query with no groups and no GROUP BY yields one row of
	// aggregates over the empty set.
	if len(a.groups) == 0 && len(a.p.GroupBy) == 0 {
		gs := a.newState(make([]sqltypes.Value, a.p.Layout.Width))
		row, err := a.emitGroup(gs)
		if err != nil {
			return nil, err
		}
		return []sqltypes.Row{row}, nil
	}
	out := make([]sqltypes.Row, 0, len(a.groups))
	for _, k := range a.order {
		row, err := a.emitGroup(a.groups[k])
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// distinctRows dedupes on the visible output prefix only: hidden ORDER BY
// tail columns are sort keys, not part of the SELECT DISTINCT row identity.
// (Deduping the full row let rows differing only in a hidden sort column
// survive, so SELECT DISTINCT a ... ORDER BY b returned duplicates of a.)
// The first occurrence wins, which also fixes which hidden sort key the
// surviving row carries into the sort — in pipeline order, deterministically.
func distinctRows(rows []sqltypes.Row, hidden int, st *Stats) []sqltypes.Row {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		k := string(sqltypes.EncodeKey(nil, r[:len(r)-hidden]...))
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	st.SortRows += int64(len(rows)) // dedup work accounted like a sort pass
	return out
}

func sortRows(rows []sqltypes.Row, specs []OrderSpec) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, s := range specs {
			c := sqltypes.Compare(rows[i][s.Col], rows[j][s.Col])
			if c == 0 {
				continue
			}
			if s.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func applyLimit(rows []sqltypes.Row, limit, offset int64) []sqltypes.Row {
	if offset > 0 {
		if offset >= int64(len(rows)) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && limit < int64(len(rows)) {
		rows = rows[:limit]
	}
	return rows
}
