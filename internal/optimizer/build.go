package optimizer

import (
	"fmt"
	"strings"

	"aim/internal/exec"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// BuildSelectPlan plans and constructs an executable physical plan for a
// fully bound SELECT (no placeholders), one-shot. Only materialized schema
// indexes are considered.
func (o *Optimizer) BuildSelectPlan(sel *sqlparser.Select) (*exec.Plan, []string, error) {
	return o.PlanSelect("", sel, nil)
}

// PlanSelect is BuildSelectPlan for an execution of a normalized template:
// sel's placeholders take params' values, and the parameter-independent half
// of the planning is memoised under key, the template's text (see plan).
func (o *Optimizer) PlanSelect(key string, sel *sqlparser.Select, params []sqltypes.Value) (*exec.Plan, []string, error) {
	p, err := o.plan(key, sel, nil, false, params)
	if err != nil {
		return nil, nil, err
	}
	plan, err := buildExecPlan(p, params)
	if err != nil {
		return nil, nil, err
	}
	if err := buildOutputs(p.sel, p.info, plan); err != nil {
		return nil, nil, err
	}
	desc := make([]string, len(p.join.paths))
	for i, ap := range p.join.paths {
		desc[i] = ap.desc
	}
	return plan, desc, nil
}

// buildExecPlan constructs the access steps of the chosen plan; the caller
// adds the outputs it needs.
func buildExecPlan(p *planned, params []sqltypes.Value) (*exec.Plan, error) {
	info := p.info
	layout := info.Layout
	plan := &exec.Plan{
		Layout:         layout,
		Params:         params,
		Distinct:       p.sel.Distinct,
		Limit:          p.sel.Limit,
		Offset:         p.sel.Offset,
		OrderSatisfied: p.sorted,
		GroupOrdered:   p.gOrder,
		EstimatedCost:  p.cost,
		Steps:          make([]exec.Step, len(p.join.order)),
	}

	// Steps in join order, with residual filters attached to the earliest
	// step at which they are evaluable.
	placedAt := make([]int, len(layout.Instances)) // instance -> step position
	for pos, inst := range p.join.order {
		placedAt[inst] = pos
	}
	stepFilters := make([]sqlparser.Expr, len(p.join.order))
	for _, cj := range info.Conjuncts {
		last := 0
		for _, inst := range cj.Instances {
			if placedAt[inst] > last {
				last = placedAt[inst]
			}
		}
		stepFilters[last] = and(stepFilters[last], cj.Expr)
	}

	for pos, inst := range p.join.order {
		ap := p.join.paths[pos]
		if err := buildStep(&plan.Steps[pos], layout, inst, ap, stepFilters[pos], params); err != nil {
			return nil, err
		}
		if ap.index != nil && len(p.join.paths) > 1 {
			plan.UsedIndexes = append(plan.UsedIndexes, ap.index.Name)
		}
	}
	if len(p.join.paths) == 1 {
		// Not a copy per execution: the workload monitor reads this slice
		// from every recorded statement of a window.
		plan.UsedIndexes = p.join.paths[0].used
	}
	return plan, nil
}

// buildStep fills one executable access step from an access path.
func buildStep(step *exec.Step, layout *exec.Layout, inst int, ap accessPath, filter sqlparser.Expr, params []sqltypes.Value) error {
	step.Instance, step.Covering = inst, ap.index != nil && ap.covering
	if ap.index != nil {
		step.IndexName = ap.index.Name
	}
	if len(ap.eq) > 0 {
		step.EqKeys = make([]exec.KeySource, len(ap.eq))
	}
	for i, src := range ap.eq {
		if src.atom != nil {
			v := src.atom.Eq(params)
			if v == nil {
				return fmt.Errorf("optimizer: cannot execute plan with unbound parameter on %s", src.atom.Column)
			}
			step.EqKeys[i] = exec.Literal(*v)
			continue
		}
		otherInst, _, otherCol, ok := ap.ctx.info.JoinEdges[src.edge].Other(inst)
		if !ok {
			return fmt.Errorf("optimizer: join edge does not touch instance %d", inst)
		}
		off, err := layout.Resolve(layout.Instances[otherInst].Alias, otherCol)
		if err != nil {
			return err
		}
		step.EqKeys[i] = exec.SlotRef(off)
	}
	switch {
	case ap.inAtom != nil:
		if len(ap.inAtom.InValues) == 0 {
			return fmt.Errorf("optimizer: cannot execute IN with unbound parameters")
		}
		for _, v := range ap.inAtom.InValues {
			step.In = append(step.In, exec.Literal(v))
		}
	case ap.rng != nil:
		spec := &exec.RangeSpec{LoInc: ap.rng.LoInc, HiInc: ap.rng.HiInc}
		if lo := ap.rng.Low(params); lo != nil {
			ks := exec.Literal(*lo)
			spec.Lo = &ks
		}
		if hi := ap.rng.High(params); hi != nil {
			ks := exec.Literal(*hi)
			spec.Hi = &ks
		}
		if spec.Lo == nil && spec.Hi == nil {
			return fmt.Errorf("optimizer: cannot execute range with unbound parameters")
		}
		step.Range = spec
	}

	// ICP: conjunction of pushdown-able atoms (only for non-covering index
	// access; covering scans evaluate everything in the residual filter,
	// and clustered access has no separate lookup to avoid).
	if ap.index != nil && !ap.covering && len(ap.icp) > 0 {
		for _, a := range ap.icp {
			step.ICPSrc = and(step.ICPSrc, a.Expr)
		}
		ce, err := exec.Compile(step.ICPSrc, layout, params)
		if err != nil {
			return err
		}
		step.ICP = ce
	}

	if filter != nil {
		ce, err := exec.Compile(filter, layout, params)
		if err != nil {
			return err
		}
		step.Filter = ce
		step.FilterSrc = filter
	}
	return nil
}

// buildExprOutput compiles one scalar output expression, using the direct
// column-copy spec for bare column references so the batch driver can project
// them without per-row closure calls.
func buildExprOutput(e sqlparser.Expr, layout *exec.Layout) (exec.OutputSpec, error) {
	if cr, ok := e.(*sqlparser.ColumnRef); ok {
		if off, err := layout.Resolve(cr.Table, cr.Column); err == nil {
			return exec.ColOutput(off), nil
		}
	}
	ce, err := exec.Compile(e, layout, nil)
	if err != nil {
		return exec.OutputSpec{}, err
	}
	return exec.OutputSpec{Agg: -1, Expr: ce}, nil
}

// and conjoins e onto acc (nil: e itself).
func and(acc, e sqlparser.Expr) sqlparser.Expr {
	if acc == nil {
		return e
	}
	return &sqlparser.BinaryExpr{Op: "AND", Left: acc, Right: e}
}

// buildOutputs fills projection, aggregation, grouping and ordering specs.
// Output expressions hold no placeholders: a template with a literal outside
// WHERE is never planned as a template (sqlparser.BypassProjection).
func buildOutputs(sel *sqlparser.Select, info *queryinfo.Info, plan *exec.Plan) error {
	layout := info.Layout
	type outCol struct {
		sql   string
		alias string
	}
	var outMeta []outCol

	addAgg := func(f *sqlparser.FuncExpr) (int, error) {
		spec := exec.AggSpec{}
		switch f.Name {
		case "COUNT":
			spec.Func = exec.AggCount
		case "SUM":
			spec.Func = exec.AggSum
		case "AVG":
			spec.Func = exec.AggAvg
		case "MIN":
			spec.Func = exec.AggMin
		case "MAX":
			spec.Func = exec.AggMax
		default:
			return 0, fmt.Errorf("optimizer: unsupported aggregate %s", f.Name)
		}
		if !f.Star {
			if len(f.Args) != 1 {
				return 0, fmt.Errorf("optimizer: %s needs exactly one argument", f.Name)
			}
			ce, err := exec.Compile(f.Args[0], layout, nil)
			if err != nil {
				return 0, err
			}
			spec.Arg = ce
			if cr, ok := f.Args[0].(*sqlparser.ColumnRef); ok {
				if off, err := layout.Resolve(cr.Table, cr.Column); err == nil {
					spec.ArgCol = off + 1
				}
			}
		}
		plan.Aggs = append(plan.Aggs, spec)
		return len(plan.Aggs) - 1, nil
	}

	for _, se := range sel.Exprs {
		if se.Star {
			instances := layout.Instances
			if se.Table != "" {
				i := layout.InstanceOf(se.Table)
				if i < 0 {
					return fmt.Errorf("optimizer: unknown table %q", se.Table)
				}
				instances = layout.Instances[i : i+1]
			}
			for _, in := range instances {
				for _, col := range in.Table.ColumnNames() {
					off, err := layout.Resolve(in.Alias, col)
					if err != nil {
						return err
					}
					plan.Output = append(plan.Output, exec.ColOutput(off))
					outMeta = append(outMeta, outCol{sql: strings.ToLower(in.Alias + "." + col)})
				}
			}
			continue
		}
		if f, ok := se.Expr.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
			idx, err := addAgg(f)
			if err != nil {
				return err
			}
			plan.Output = append(plan.Output, exec.OutputSpec{Agg: idx})
			outMeta = append(outMeta, outCol{sql: strings.ToLower(f.SQL()), alias: strings.ToLower(se.Alias)})
			continue
		}
		spec, err := buildExprOutput(se.Expr, layout)
		if err != nil {
			return err
		}
		plan.Output = append(plan.Output, spec)
		outMeta = append(outMeta, outCol{sql: strings.ToLower(se.Expr.SQL()), alias: strings.ToLower(se.Alias)})
	}

	plan.Grouped = len(sel.GroupBy) > 0 || len(plan.Aggs) > 0
	for _, g := range sel.GroupBy {
		ce, err := exec.Compile(g, layout, nil)
		if err != nil {
			return err
		}
		plan.GroupBy = append(plan.GroupBy, ce)
		col := 0
		if cr, ok := g.(*sqlparser.ColumnRef); ok {
			if off, err := layout.Resolve(cr.Table, cr.Column); err == nil {
				col = off + 1
			}
		}
		plan.GroupByCols = append(plan.GroupByCols, col)
	}

	// Map ORDER BY expressions to output columns, appending hidden columns
	// when the sort key is not part of the projection.
	for _, oi := range sel.OrderBy {
		sqlText := strings.ToLower(oi.Expr.SQL())
		col := -1
		for i, m := range outMeta {
			if m.sql == sqlText || (m.alias != "" && m.alias == sqlText) {
				col = i
				break
			}
		}
		// Unqualified column names also match qualified outputs.
		if col < 0 {
			for i, m := range outMeta {
				if strings.HasSuffix(m.sql, "."+sqlText) {
					col = i
					break
				}
			}
		}
		if col < 0 {
			if f, ok := oi.Expr.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
				idx, err := addAgg(f)
				if err != nil {
					return err
				}
				plan.Output = append(plan.Output, exec.OutputSpec{Agg: idx})
			} else {
				spec, err := buildExprOutput(oi.Expr, layout)
				if err != nil {
					return err
				}
				plan.Output = append(plan.Output, spec)
			}
			outMeta = append(outMeta, outCol{sql: sqlText})
			col = len(outMeta) - 1
			plan.HiddenTail++
		}
		plan.OrderBy = append(plan.OrderBy, exec.OrderSpec{Col: col, Desc: oi.Desc})
	}
	return nil
}

// PlanDML constructs the single-table locating plan for an UPDATE or DELETE,
// plus the compiled SET assignments for updates, with key and params as in
// PlanSelect: the memoised half is the locating SELECT's.
func (o *Optimizer) PlanDML(key string, stmt sqlparser.Statement, params []sqltypes.Value) (*exec.Plan, []exec.Assignment, error) {
	upd, isUpdate := stmt.(*sqlparser.Update)
	if _, isDelete := stmt.(*sqlparser.Delete); !isUpdate && !isDelete {
		return nil, nil, fmt.Errorf("optimizer: PlanDML on %T", stmt)
	}
	p, err := o.plan(key, stmt, nil, false, params)
	if err != nil {
		return nil, nil, err
	}
	// The locating plan does not early-terminate or project.
	plan, err := buildExecPlan(p, params)
	if err != nil {
		return nil, nil, err
	}
	if !isUpdate {
		return plan, nil, nil
	}
	tbl := p.ctxs[0].table
	assigns := make([]exec.Assignment, 0, len(upd.Set))
	for _, a := range upd.Set {
		ord := tbl.ColumnIndex(a.Column)
		if ord < 0 {
			return nil, nil, fmt.Errorf("optimizer: unknown column %q in SET", a.Column)
		}
		ce, err := exec.Compile(a.Value, plan.Layout, params)
		if err != nil {
			return nil, nil, err
		}
		assigns = append(assigns, exec.Assignment{Ordinal: ord, Value: ce})
	}
	return plan, assigns, nil
}
