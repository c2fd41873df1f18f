package exec

import (
	"fmt"
	"slices"

	"aim/internal/btree"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// batchSize is the number of rows a scan materializes per batch. Large
// enough that per-batch dispatch overhead vanishes against per-row work,
// small enough that a batch's row views and predicate lanes stay cache
// resident.
const batchSize = 1024

var noVals [batchSize]struct{} // an index batch's values: no memory

// batchArena bundles the reusable scratch buffers of one plan step: the key
// span and row views ReadBatch fills, the selection vector, slabs for the
// rows the step builds (decoded index views, widened env rows), the scan
// iterators and key-range buffers its scans reopen once per outer row, and
// free lists for the tri-state lanes and sub-selections that nested AND/OR
// kernels borrow. Arenas are pooled on the Executor (sync.Pool) and a run
// takes one per step, so steady-state replay allocates only the output rows
// that escape into Results.
type batchArena struct {
	keys []([]byte)
	rows []sqltypes.Row
	sel  []int32
	slab []sqltypes.Value // batch rows built by the step (see scanRange)
	wide []sqltypes.Value // survivors widened to env rows
	dec  []sqltypes.Value // per-entry key decode scratch

	prefix, in []sqltypes.Value // equality prefix and IN values of a scan
	bounds     keyBuf
	rowIt      btree.Iter[sqltypes.Row]
	keyIt      btree.Iter[struct{}]

	triFree [][]int8
	selFree [][]int32
}

func (e *Executor) getArena() *batchArena {
	if a, ok := e.arenas.Get().(*batchArena); ok {
		return a
	}
	return &batchArena{
		keys: make([][]byte, batchSize),
		rows: make([]sqltypes.Row, batchSize),
		sel:  make([]int32, 0, batchSize),
	}
}

func (e *Executor) putArena(a *batchArena) { e.arenas.Put(a) }

// grow returns *buf resliced to n values, reallocated when too small.
func grow(buf *[]sqltypes.Value, n int) []sqltypes.Value {
	if cap(*buf) < n {
		*buf = make([]sqltypes.Value, n)
	}
	return (*buf)[:n]
}

func (a *batchArena) getTri() []int8 {
	if k := len(a.triFree); k > 0 {
		b := a.triFree[k-1]
		a.triFree = a.triFree[:k-1]
		return b
	}
	return make([]int8, batchSize)
}

func (a *batchArena) putTri(b []int8) { a.triFree = append(a.triFree, b) }

func (a *batchArena) getSel() []int32 {
	if k := len(a.selFree); k > 0 {
		s := a.selFree[k-1]
		a.selFree = a.selFree[:k-1]
		return s[:0]
	}
	return make([]int32, 0, batchSize)
}

func (a *batchArena) putSel(s []int32) { a.selFree = append(a.selFree, s) }

// batchSink consumes the last step's filtered batches. rows are arena views
// valid only during the call; a sink copies what it keeps.
type batchSink interface {
	consume(rows []sqltypes.Row, sel []int32) error
}

// rowSink is a batchSink that yields output rows: the projector, or the
// adapter feeding the aggregator.
type rowSink interface {
	batchSink
	finishRows() ([]sqltypes.Row, error)
}

// batchProjector materializes output rows. When every output is a bare
// column reference it copies values out of the batch into one slab per
// batch (a single allocation covering all selected rows) instead of calling
// a closure per column per row. Output slabs escape into the Result and are
// never pooled.
type batchProjector struct {
	p       *Plan
	cols    []int // env offsets when ALL outputs are bare columns, else nil
	outRows []sqltypes.Row
}

func newBatchProjector(p *Plan) *batchProjector {
	s := &batchProjector{p: p}
	cols := make([]int, len(p.Output))
	for i, o := range p.Output {
		if o.Agg >= 0 || o.col == 0 {
			return s
		}
		cols[i] = o.col - 1
	}
	s.cols = cols
	return s
}

func (s *batchProjector) consume(rows []sqltypes.Row, sel []int32) error {
	outW := len(s.p.Output)
	if s.cols != nil && outW > 0 {
		slab := make([]sqltypes.Value, len(sel)*outW)
		for k, i := range sel {
			dst := slab[k*outW : (k+1)*outW : (k+1)*outW]
			src := rows[i]
			for j, off := range s.cols {
				dst[j] = src[off]
			}
			s.outRows = append(s.outRows, dst)
		}
		return nil
	}
	for _, i := range sel {
		env := rows[i]
		row := make(sqltypes.Row, outW)
		for j, o := range s.p.Output {
			v, err := o.Expr(env)
			if err != nil {
				return err
			}
			row[j] = v
		}
		s.outRows = append(s.outRows, row)
	}
	return nil
}

func (s *batchProjector) finishRows() ([]sqltypes.Row, error) { return s.outRows, nil }

// batchAggSink feeds selected rows into the shared aggregator. When every
// grouping expression and aggregate argument is a bare column, it computes
// group keys by direct reads into one reused buffer and folds values without
// per-row closure calls — but group identity, insertion order, stream
// flushing and the accumulation arithmetic all live in the aggregator, so
// the produced groups are identical to per-row absorb's by construction.
type batchAggSink struct {
	agg       *aggregator
	groupCols []int // env offsets; nil = closure fallback via absorb
	argCols   []int // per agg: env offset, or -1 for COUNT(*)
	keyBuf    []byte
	// Single-INT-group-column cache: skips the per-row key encode and string
	// map lookup for repeat groups. First sight of a group still registers it
	// through aggregator.state, so identity and insertion order are unchanged;
	// hash mode only, because streaming retires states on key change.
	intGroups map[int64]*groupState
	nullGroup *groupState
	// sumAgg is non-nil when every aggregate is COUNT/SUM/AVG — the pure
	// counter/adder arms of groupState.add — letting consume inline the
	// identical accumulation (same additions, same order) without a call
	// per value. MIN/MAX keep routing through add.
	sumAgg []bool
}

func newBatchAggSink(p *Plan) *batchAggSink {
	s := &batchAggSink{agg: newAggregator(p)}
	if len(p.GroupByCols) != len(p.GroupBy) {
		return s
	}
	groupCols := make([]int, len(p.GroupByCols))
	for i, c := range p.GroupByCols {
		if c == 0 {
			return s
		}
		groupCols[i] = c - 1
	}
	argCols := make([]int, len(p.Aggs))
	for i, spec := range p.Aggs {
		if spec.Arg == nil {
			argCols[i] = -1
			continue
		}
		if spec.ArgCol == 0 {
			return s
		}
		argCols[i] = spec.ArgCol - 1
	}
	s.groupCols, s.argCols = groupCols, argCols
	if len(groupCols) == 1 && !s.agg.stream {
		s.intGroups = map[int64]*groupState{}
	}
	sumAgg := make([]bool, len(p.Aggs))
	for i, spec := range p.Aggs {
		switch spec.Func {
		case AggCount:
		case AggSum, AggAvg:
			sumAgg[i] = true
		default:
			return s
		}
	}
	s.sumAgg = sumAgg
	return s
}

// lookup encodes the group key for env and resolves its state through the
// aggregator, the single source of truth for group identity.
func (s *batchAggSink) lookup(env sqltypes.Row) (*groupState, error) {
	s.keyBuf = s.keyBuf[:0]
	for _, c := range s.groupCols {
		s.keyBuf = sqltypes.EncodeKey(s.keyBuf, env[c])
	}
	return s.agg.state(s.keyBuf, env)
}

func (s *batchAggSink) consume(rows []sqltypes.Row, sel []int32) error {
	if s.argCols == nil {
		for _, i := range sel {
			if err := s.agg.absorb(rows[i]); err != nil {
				return err
			}
		}
		return nil
	}
	aggs := s.agg.p.Aggs
	for _, i := range sel {
		env := rows[i]
		var gs *groupState
		var err error
		if s.intGroups != nil {
			switch g := &env[s.groupCols[0]]; {
			case g.IsNull():
				if gs = s.nullGroup; gs == nil {
					if gs, err = s.lookup(env); err != nil {
						return err
					}
					s.nullGroup = gs
				}
			case g.Kind() == sqltypes.KindInt:
				var ok bool
				if gs, ok = s.intGroups[g.Int()]; !ok {
					if gs, err = s.lookup(env); err != nil {
						return err
					}
					s.intGroups[g.Int()] = gs
				}
			default:
				if gs, err = s.lookup(env); err != nil {
					return err
				}
			}
		} else if gs, err = s.lookup(env); err != nil {
			return err
		}
		if s.sumAgg != nil {
			// groupState.add's COUNT/SUM/AVG arms, inlined: identical
			// counter increments and float additions in identical order.
			for j, c := range s.argCols {
				if c < 0 {
					gs.counts[j]++ // COUNT(*)
					continue
				}
				v := &env[c]
				if v.IsNull() {
					continue // aggregates skip NULLs
				}
				gs.counts[j]++
				if s.sumAgg[j] {
					gs.sums[j] += v.Float()
				}
			}
			continue
		}
		for j := range aggs {
			c := s.argCols[j]
			v := &sqltypes.Null
			if c >= 0 {
				v = &env[c]
				if v.IsNull() {
					continue // aggregates skip NULLs
				}
			}
			gs.add(j, aggs[j].Func, v)
		}
	}
	return nil
}

func (s *batchAggSink) finishRows() ([]sqltypes.Row, error) { return s.agg.finish() }

// pkSink collects the encoded primary key of every selected row: the read
// phase of UPDATE and DELETE (CollectPKs).
type pkSink struct {
	offs []int // env offsets of the primary-key columns
	vals []sqltypes.Value
	pks  [][]byte
}

func (s *pkSink) consume(rows []sqltypes.Row, sel []int32) error {
	for _, i := range sel {
		for j, off := range s.offs {
			s.vals[j] = rows[i][off]
		}
		s.pks = append(s.pks, sqltypes.EncodeKey(nil, s.vals...))
	}
	return nil
}

// pipeline is one plan execution on the batch driver: a left-deep index
// nested-loop join whose every step reads batches.
type pipeline struct {
	e    *Executor
	p    *Plan
	st   *Stats
	sink batchSink
	// target is the number of sink rows after which the pipeline stops
	// (Plan.rowTarget), or -1; produced counts the rows handed over so far.
	target, produced int64
	levels           []level // one per step
}

// level is what one step keeps for the whole run. Each step owns an arena,
// so an inner scan never clobbers the outer batch it is being driven from.
type level struct {
	a                 *batchArena
	filterVec, icpVec vecPred // nil = closure fallback
	// widenFirst marks a multi-instance step with a predicate that has no
	// kernel: its closure reads full env rows, so the step widens every batch
	// row before filtering, and its kernels read the full row too.
	widenFirst bool
}

// drive runs the plan's steps and feeds every fully joined, fully filtered
// env row to sink. It produces the rows and the Stats the tuple-at-a-time
// reference interpreter (reference_test.go) defines, byte for byte; the rule
// that makes early stop exact is the read cap in scanRange.
func (e *Executor) drive(p *Plan, sink batchSink, target int64, st *Stats) error {
	r := &pipeline{e: e, p: p, st: st, sink: sink, target: target, levels: make([]level, len(p.Steps))}
	for d := range r.levels {
		step := &p.Steps[d]
		inst := p.Layout.Instances[step.Instance]
		sc := scope{l: p.Layout, params: p.Params, base: inst.Base, n: len(inst.Table.Columns)}
		lv := level{a: e.getArena(), filterVec: compileVec(step.FilterSrc, sc), icpVec: compileVec(step.ICPSrc, sc)}
		if (lv.filterVec == nil && step.Filter != nil || lv.icpVec == nil && step.ICP != nil) && sc.n < p.Layout.Width {
			sc.base, sc.n, lv.widenFirst = 0, p.Layout.Width, true
			lv.filterVec, lv.icpVec = compileVec(step.FilterSrc, sc), compileVec(step.ICPSrc, sc)
		}
		r.levels[d] = lv
		defer e.putArena(lv.a)
	}
	err := r.scanStep(0, make([]sqltypes.Value, p.Layout.Width))
	if err == errStop {
		return nil
	}
	return err
}

// scanStep resolves the step's key ranges from the outer env row — equality
// prefix, then either the IN list (one bounded scan per distinct value, in
// value order so output stays sorted on the index columns) or the optional
// range — and scans each. Its buffers live in the step's arena: an inner step
// runs once per outer row.
func (r *pipeline) scanStep(depth int, env []sqltypes.Value) error {
	step := &r.p.Steps[depth]
	a := r.levels[depth].a
	inst := r.p.Layout.Instances[step.Instance]
	tbl := r.e.Store.Table(inst.Table.Name)
	if tbl == nil {
		return fmt.Errorf("exec: table %q not materialized", inst.Table.Name)
	}
	// A NULL equality key matches nothing.
	a.prefix = a.prefix[:0]
	for _, k := range step.EqKeys {
		v := k.Resolve(env)
		if v.IsNull() {
			return nil
		}
		a.prefix = append(a.prefix, v)
	}
	if len(step.In) == 0 {
		lo, hi, hiInc, empty := a.bounds.scanBounds(a.prefix, step.Range, env)
		if empty {
			return nil
		}
		return r.scanRange(depth, tbl, env, lo, hi, hiInc)
	}
	a.in = a.in[:0]
	for _, ks := range step.In {
		if v := ks.Resolve(env); !v.IsNull() {
			a.in = append(a.in, v)
		}
	}
	slices.SortFunc(a.in, sqltypes.Compare)
	n := len(a.prefix)
	for i, v := range a.in {
		if i > 0 && sqltypes.Compare(a.in[i-1], v) == 0 {
			continue // dedupe repeated IN values
		}
		a.prefix = append(a.prefix[:n], v)
		lo, hi, hiInc, _ := a.bounds.scanBounds(a.prefix, nil, env) // non-null prefix: never empty
		if err := r.scanRange(depth, tbl, env, lo, hi, hiInc); err != nil {
			return err
		}
	}
	return nil
}

// applyPred narrows sel to rows passing the predicate, compacting in place.
// The vectorized kernel is preferred: every row is written and the kept
// count advances by its lane's truth, so no branch depends on the row. A nil
// kernel falls back to the row closure evaluated per selected row (same
// order, same first error).
func applyPred(a *batchArena, env []sqltypes.Value, vp vecPred, closure CompiledExpr, rows []sqltypes.Row, sel []int32) ([]int32, error) {
	if vp != nil {
		out := a.getTri()
		vp(a, env, rows, sel, out)
		n := 0
		for _, i := range sel {
			sel[n] = i
			n += b2i(out[i] == triTrue)
		}
		a.putTri(out)
		return sel[:n], nil
	}
	if closure == nil {
		return sel, nil
	}
	kept := sel[:0]
	for _, i := range sel {
		ok, err := passes(closure, rows[i])
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, i)
		}
	}
	return kept, nil
}

// scanRange scans one key range of the step's clustered tree or secondary
// index batch by batch: read, build batch rows, ICP, PK lookup for the ICP
// survivors, residual filter, widen the survivors to env rows, then the sink
// on the last step or one inner scanStep per surviving row.
//
// A batch row is the step's own stored row, or its decoded index view of
// the table's columns (index and PK columns, the rest NULL, until a PK
// lookup replaces it) — no copy of the outer row. The step's kernels read
// the outer row's columns as batch constants from env. Only rows that pass
// are widened to a full Layout.Width env row: the outer row with this
// instance's segment overwritten. A single-instance layout's stored row IS
// the env row (base 0, width == the table's columns), so nothing is copied.
// When a multi-instance step's predicate falls back to its closure, the
// rows are widened before filtering instead (level.widenFirst).
//
// The read cap keeps Stats exact under early stop. Without a row target a
// batch is batchSize entries. With one, the last step reads at most
// target-produced entries — each yields at most one row, so the batch cannot
// run past the entry that completes the target — and every outer step reads
// one, because its inner scans may complete the target before a second outer
// entry would be touched. No index entry, PK lookup or leaf is read that a
// tuple-at-a-time loop stopping on the target row would not have read.
//
// Accounting per scan: the tree-height probe up front; RowsRead per entry
// read, before ICP; one RowsRead plus a clustered-height probe per PK lookup,
// for ICP survivors only; the leaves walked once the range is exhausted. An
// errStop unwinds past that last add at every depth, so an early-stopped
// statement under-counts its leaf pages. The goldens pin that number.
func (r *pipeline) scanRange(depth int, tbl *storage.Table, env []sqltypes.Value, lo, hi []byte, hiInc bool) error {
	e, st, lv := r.e, r.st, &r.levels[depth]
	a := lv.a
	step := &r.p.Steps[depth]
	inst := r.p.Layout.Instances[step.Instance]
	base, ncols, envW := inst.Base, len(inst.Table.Columns), r.p.Layout.Width
	last := depth == len(r.p.Steps)-1
	// width is a batch row's length, seg where the instance's segment starts.
	width, seg, widenFirst := ncols, 0, lv.widenFirst
	if widenFirst {
		width, seg = envW, base
	}

	var ix *storage.Index
	var ords []int
	pks := tbl.Def.PrimaryKey
	needDecode := false
	if step.IndexName != "" {
		if ix = tbl.Index(step.IndexName); ix == nil {
			return fmt.Errorf("exec: index %q not materialized on %s", step.IndexName, tbl.Def.Name)
		}
		ords = ix.Ordinals()
		needDecode = step.Covering || step.ICP != nil
	}
	if e.m != nil {
		switch {
		case ix == nil:
			e.m.clusteredScans.Inc()
		case step.Covering:
			e.m.indexOnlyScans.Inc()
		default:
			e.m.indexScans.Inc()
		}
	}
	dataHeight := int64(tbl.Data().Height())
	var scanned int64
	if ix == nil {
		st.PageReads += dataHeight
		tbl.Data().SeekRangeInto(&a.rowIt, lo, hi, hiInc)
	} else {
		st.PageReads += int64(ix.Tree().Height())
		ix.Tree().SeekRangeInto(&a.keyIt, lo, hi, hiInc)
	}
	for {
		max := batchSize
		if r.target >= 0 {
			max = 1
			if last {
				max = int(min(r.target-r.produced, batchSize))
			}
		}
		var n int
		if ix == nil {
			n = a.rowIt.ReadBatch(nil, a.rows, max)
		} else {
			n = a.keyIt.ReadBatch(a.keys, noVals[:], max)
		}
		if n == 0 {
			break
		}
		st.RowsRead += int64(n) // entries examined
		scanned += int64(n)
		if e.m != nil {
			e.m.batches.Inc()
		}
		rows := a.rows[:n]
		sel := a.sel[:0]
		for i := 0; i < n; i++ {
			sel = append(sel, int32(i))
		}
		if widenFirst || needDecode {
			slab := grow(&a.slab, n*width)
			for i := range rows {
				w := slab[i*width : (i+1)*width : (i+1)*width]
				if widenFirst {
					copy(w, env)
					if ix == nil {
						copy(w[seg:], rows[i])
					}
				}
				rows[i] = w
			}
		}
		if needDecode {
			// Index-only view: the index and PK columns, the rest NULL.
			dec := grow(&a.dec, len(ords)+len(pks))
			for i := range rows {
				view := rows[i][seg : seg+ncols]
				for j := range view {
					view[j] = sqltypes.Null
				}
				if _, err := sqltypes.DecodeKeyInto(dec, a.keys[i], len(dec)); err != nil {
					return fmt.Errorf("exec: corrupt index entry: %v", err)
				}
				for j, o := range ords {
					view[o] = dec[j]
				}
				for j, o := range pks {
					view[o] = dec[len(ords)+j]
				}
			}
			if step.ICP != nil {
				var err error
				if sel, err = applyPred(a, env, lv.icpVec, step.ICP, rows, sel); err != nil {
					return err
				}
			}
		}
		if ix != nil && !step.Covering {
			for _, i := range sel {
				pk, err := ix.PK(a.keys[i])
				if err != nil {
					return fmt.Errorf("exec: corrupt index entry: %v", err)
				}
				row, ok := tbl.GetByPK(pk, nil)
				if !ok {
					return fmt.Errorf("exec: dangling index entry in %s", step.IndexName)
				}
				st.RowsRead++
				st.PageReads += dataHeight
				// The base row replaces any decoded ICP view.
				if widenFirst {
					copy(rows[i][seg:], row)
				} else {
					rows[i] = row
				}
			}
		}
		sel, err := applyPred(a, env, lv.filterVec, step.Filter, rows, sel)
		if err != nil {
			return err
		}
		if !widenFirst && ncols < envW {
			// Widen only what survives.
			slab := grow(&a.wide, len(sel)*envW)
			for k, i := range sel {
				w := slab[k*envW : (k+1)*envW : (k+1)*envW]
				copy(w, env)
				copy(w[base:], rows[i])
				rows[i] = w
			}
		}
		if !last {
			for _, i := range sel {
				if err := r.scanStep(depth+1, rows[i]); err != nil {
					return err
				}
			}
			continue
		}
		if err := r.sink.consume(rows, sel); err != nil {
			return err
		}
		if r.produced += int64(len(sel)); r.target >= 0 && r.produced >= r.target {
			return errStop
		}
	}
	if ix == nil {
		st.PageReads += int64(a.rowIt.LeavesWalked())
	} else {
		st.PageReads += int64(a.keyIt.LeavesWalked())
	}
	if e.m != nil {
		if ix == nil {
			e.m.clusteredRows.Add(scanned)
		} else {
			e.m.indexRows.Add(scanned)
		}
	}
	return nil
}
