package exec

import (
	"fmt"
	"sort"

	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// The reference interpreter: the tuple-at-a-time nested-loop executor that
// served production until the batch driver took every plan. It lives in test
// code as the independent definition of what a plan returns and what it
// costs — rows, row order and the complete Stats struct — that the
// differential suite, FuzzExecScanOracle and the exec benchmark hold the
// driver to. It shares only the result tail (finish), the aggregator and
// scanBounds with production; scan order, accounting and early stop are its
// own.

// runReference executes a SELECT plan on the row loop.
func (e *Executor) runReference(p *Plan, columns []string) (*Result, error) {
	res := &Result{Columns: columns}
	if p.Limit == 0 {
		return e.finish(p, nil, res)
	}
	env := make([]sqltypes.Value, p.Layout.Width)
	rowTarget := p.rowTarget()

	var outRows []sqltypes.Row
	emitEnvRow := func() error {
		row := make(sqltypes.Row, len(p.Output))
		for i, o := range p.Output {
			v, err := o.Expr(env)
			if err != nil {
				return err
			}
			row[i] = v
		}
		outRows = append(outRows, row)
		if rowTarget >= 0 && int64(len(outRows)) >= rowTarget {
			return errStop
		}
		return nil
	}

	if p.Grouped {
		agg := newAggregator(p)
		err := e.runSteps(p, 0, env, &res.Stats, func() error { return agg.absorb(env) })
		if err != nil {
			return nil, err
		}
		outRows, err = agg.finish()
		if err != nil {
			return nil, err
		}
	} else {
		if err := e.runSteps(p, 0, env, &res.Stats, emitEnvRow); err != nil && err != errStop {
			return nil, err
		}
	}
	return e.finish(p, outRows, res)
}

// collectPKsReference is CollectPKs on the row loop.
func (e *Executor) collectPKsReference(p *Plan) ([][]byte, Stats, error) {
	inst := p.Layout.Instances[p.Steps[0].Instance]
	var st Stats
	var pks [][]byte
	env := make([]sqltypes.Value, p.Layout.Width)
	pkVals := make([]sqltypes.Value, len(inst.Table.PrimaryKey))
	err := e.runSteps(p, 0, env, &st, func() error {
		for i, o := range inst.Table.PrimaryKey {
			pkVals[i] = env[inst.Base+o]
		}
		pks = append(pks, sqltypes.EncodeKey(nil, pkVals...))
		return nil
	})
	return pks, st, err
}

// runSteps drives the left-deep nested-loop pipeline. onRow is invoked once
// per fully joined env row.
func (e *Executor) runSteps(p *Plan, depth int, env []sqltypes.Value, st *Stats, onRow func() error) error {
	if depth == len(p.Steps) {
		return onRow()
	}
	step := &p.Steps[depth]
	inst := p.Layout.Instances[step.Instance]
	tbl := e.Store.Table(inst.Table.Name)
	if tbl == nil {
		return fmt.Errorf("exec: table %q not materialized", inst.Table.Name)
	}

	// Resolve equality-prefix values; a NULL equality key matches nothing.
	prefix := make([]sqltypes.Value, len(step.EqKeys))
	for i, k := range step.EqKeys {
		v := k.Resolve(env)
		if v.IsNull() {
			return nil
		}
		prefix[i] = v
	}

	if len(step.In) > 0 {
		// Multi-range read: one bounded scan per IN value, in value order so
		// the output remains sorted on the index columns.
		vals := make([]sqltypes.Value, 0, len(step.In))
		for _, ks := range step.In {
			v := ks.Resolve(env)
			if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		sort.Slice(vals, func(i, j int) bool { return sqltypes.Compare(vals[i], vals[j]) < 0 })
		prev := sqltypes.Null
		for _, v := range vals {
			if !prev.IsNull() && sqltypes.Compare(prev, v) == 0 {
				continue // dedupe repeated IN values
			}
			prev = v
			full := append(append([]sqltypes.Value(nil), prefix...), v)
			lo, hi, hiInc, _ := new(keyBuf).scanBounds(full, nil, env) // non-null prefix: never empty
			var err error
			if step.IndexName == "" {
				err = e.scanClustered(p, depth, step, tbl, env, lo, hi, hiInc, st, onRow)
			} else {
				err = e.scanIndex(p, depth, step, tbl, env, lo, hi, hiInc, st, onRow)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	lo, hi, hiInc, empty := new(keyBuf).scanBounds(prefix, step.Range, env)
	if empty {
		return nil
	}
	if step.IndexName == "" {
		return e.scanClustered(p, depth, step, tbl, env, lo, hi, hiInc, st, onRow)
	}
	return e.scanIndex(p, depth, step, tbl, env, lo, hi, hiInc, st, onRow)
}

func (e *Executor) scanClustered(p *Plan, depth int, step *Step, tbl *storage.Table, env []sqltypes.Value, lo, hi []byte, hiInc bool, st *Stats, onRow func() error) error {
	base := p.Layout.Instances[step.Instance].Base
	ncols := len(p.Layout.Instances[step.Instance].Table.Columns)
	if e.m != nil {
		e.m.clusteredScans.Inc()
	}
	var scanned int64
	st.PageReads += int64(tbl.Data().Height())
	it := tbl.Data().SeekRange(lo, hi, hiInc)
	for ; it.Valid(); it.Next() {
		st.RowsRead++
		scanned++
		row := it.Value()
		copy(env[base:base+ncols], row)
		ok, err := passes(step.Filter, env)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := e.runSteps(p, depth+1, env, st, onRow); err != nil {
			return err
		}
	}
	st.PageReads += int64(it.LeavesWalked())
	if e.m != nil {
		e.m.clusteredRows.Add(scanned)
	}
	clearSegment(env, base, ncols)
	return nil
}

func (e *Executor) scanIndex(p *Plan, depth int, step *Step, tbl *storage.Table, env []sqltypes.Value, lo, hi []byte, hiInc bool, st *Stats, onRow func() error) error {
	ix := tbl.Index(step.IndexName)
	if ix == nil {
		return fmt.Errorf("exec: index %q not materialized on %s", step.IndexName, tbl.Def.Name)
	}
	inst := p.Layout.Instances[step.Instance]
	base := inst.Base
	ncols := len(inst.Table.Columns)
	keyCols := len(ix.Ordinals()) + len(tbl.Def.PrimaryKey)

	if e.m != nil {
		if step.Covering {
			e.m.indexOnlyScans.Inc()
		} else {
			e.m.indexScans.Inc()
		}
	}
	var scanned int64
	st.PageReads += int64(ix.Tree().Height())
	it := ix.Tree().SeekRange(lo, hi, hiInc)
	for ; it.Valid(); it.Next() {
		st.RowsRead++ // index entry examined
		scanned++
		needDecode := step.Covering || step.ICP != nil
		if needDecode {
			vals, _, err := sqltypes.DecodeKey(it.Key(), keyCols)
			if err != nil {
				return fmt.Errorf("exec: corrupt index entry: %v", err)
			}
			clearSegment(env, base, ncols)
			for i, o := range ix.Ordinals() {
				env[base+o] = vals[i]
			}
			for i, o := range tbl.Def.PrimaryKey {
				env[base+o] = vals[len(ix.Ordinals())+i]
			}
			if step.ICP != nil {
				ok, err := passes(step.ICP, env)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
		}
		if !step.Covering {
			// The clustered key the long way, independent of Index.PK: decode
			// the whole entry, re-encode its primary-key values.
			vals, rest, err := sqltypes.DecodeKey(it.Key(), keyCols)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("exec: corrupt index entry %x: %v", it.Key(), err)
			}
			row, ok := tbl.GetByPK(sqltypes.EncodeKey(nil, vals[len(ix.Ordinals()):]...), nil)
			if !ok {
				return fmt.Errorf("exec: dangling index entry in %s", step.IndexName)
			}
			st.RowsRead++
			st.PageReads += int64(tbl.Data().Height())
			copy(env[base:base+ncols], row)
		}
		ok, err := passes(step.Filter, env)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := e.runSteps(p, depth+1, env, st, onRow); err != nil {
			return err
		}
	}
	st.PageReads += int64(it.LeavesWalked())
	if e.m != nil {
		e.m.indexRows.Add(scanned)
	}
	clearSegment(env, base, ncols)
	return nil
}

func clearSegment(env []sqltypes.Value, base, n int) {
	for i := base; i < base+n; i++ {
		env[i] = sqltypes.Null
	}
}
