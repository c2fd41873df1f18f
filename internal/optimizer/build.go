package optimizer

import (
	"fmt"
	"strings"

	"aim/internal/exec"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
)

// BuildSelectPlan plans and constructs an executable physical plan for a
// fully bound SELECT (no placeholders). Only materialized schema indexes are
// considered.
func (o *Optimizer) BuildSelectPlan(sel *sqlparser.Select) (*exec.Plan, []string, error) {
	p, err := o.planSelect(sel, nil)
	if err != nil {
		return nil, nil, err
	}
	return o.buildExecPlan(sel, p)
}

func (o *Optimizer) buildExecPlan(sel *sqlparser.Select, p *planned) (*exec.Plan, []string, error) {
	info := p.info
	layout := info.Layout
	plan := &exec.Plan{
		Layout:         layout,
		Distinct:       sel.Distinct,
		Limit:          sel.Limit,
		Offset:         sel.Offset,
		OrderSatisfied: p.sorted,
		GroupOrdered:   p.gOrder,
		EstimatedCost:  p.cost,
	}

	// Steps in join order, with residual filters attached to the earliest
	// step at which they are evaluable.
	placedAt := make([]int, len(layout.Instances)) // instance -> step position
	for pos, inst := range p.join.order {
		placedAt[inst] = pos
	}
	stepFilters := make([][]sqlparser.Expr, len(p.join.order))
	for _, cj := range info.Conjuncts {
		last := 0
		for _, inst := range cj.Instances {
			if placedAt[inst] > last {
				last = placedAt[inst]
			}
		}
		stepFilters[last] = append(stepFilters[last], cj.Expr)
	}

	for pos, inst := range p.join.order {
		ap := p.join.paths[pos]
		step, err := o.buildStep(layout, inst, ap, stepFilters[pos])
		if err != nil {
			return nil, nil, err
		}
		plan.Steps = append(plan.Steps, *step)
		if ap.index != nil {
			plan.UsedIndexes = append(plan.UsedIndexes, ap.index.Name)
		}
	}

	if err := o.buildOutputs(sel, info, plan); err != nil {
		return nil, nil, err
	}

	var desc []string
	for pos, inst := range p.join.order {
		desc = append(desc, p.join.paths[pos].Desc(layout.Instances[inst].Alias))
	}
	return plan, desc, nil
}

// buildStep constructs one executable access step from an access path.
func (o *Optimizer) buildStep(layout *exec.Layout, inst int, ap *accessPath, filters []sqlparser.Expr) (*exec.Step, error) {
	step := &exec.Step{Instance: inst, Covering: ap.index != nil && ap.covering}
	if ap.index != nil {
		step.IndexName = ap.index.Name
	}
	for i, src := range ap.eq {
		switch {
		case src.atom != nil:
			if src.atom.EqValue == nil {
				return nil, fmt.Errorf("optimizer: cannot execute plan with unbound parameter on %s", src.atom.Column)
			}
			step.EqKeys = append(step.EqKeys, exec.Literal(*src.atom.EqValue))
		case src.join != nil:
			otherInst, _, otherCol, ok := src.join.Other(inst)
			if !ok {
				return nil, fmt.Errorf("optimizer: join edge does not touch instance %d", inst)
			}
			off, err := layout.Resolve(layout.Instances[otherInst].Alias, otherCol)
			if err != nil {
				return nil, err
			}
			step.EqKeys = append(step.EqKeys, exec.SlotRef(off))
		default:
			return nil, fmt.Errorf("optimizer: empty eq source at position %d", i)
		}
	}
	switch {
	case ap.inAtom != nil:
		if len(ap.inAtom.InValues) == 0 {
			return nil, fmt.Errorf("optimizer: cannot execute IN with unbound parameters")
		}
		for _, v := range ap.inAtom.InValues {
			step.In = append(step.In, exec.Literal(v))
		}
	case ap.rng != nil:
		spec := &exec.RangeSpec{LoInc: ap.rng.LoInc, HiInc: ap.rng.HiInc}
		if ap.rng.Lo != nil {
			ks := exec.Literal(*ap.rng.Lo)
			spec.Lo = &ks
		}
		if ap.rng.Hi != nil {
			ks := exec.Literal(*ap.rng.Hi)
			spec.Hi = &ks
		}
		if spec.Lo == nil && spec.Hi == nil {
			return nil, fmt.Errorf("optimizer: cannot execute range with unbound parameters")
		}
		step.Range = spec
	}

	// ICP: conjunction of pushdown-able atoms (only for non-covering index
	// access; covering scans evaluate everything in the residual filter,
	// and clustered access has no separate lookup to avoid).
	if ap.index != nil && !ap.covering && len(ap.icp) > 0 {
		icpExpr := andAll(atomExprs(ap.icp))
		ce, err := exec.Compile(icpExpr, layout)
		if err != nil {
			return nil, err
		}
		step.ICP = ce
		step.ICPSrc = icpExpr
	}

	if len(filters) > 0 {
		filterExpr := andAll(filters)
		ce, err := exec.Compile(filterExpr, layout)
		if err != nil {
			return nil, err
		}
		step.Filter = ce
		step.FilterSrc = filterExpr
	}
	return step, nil
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
	ce, err := exec.Compile(e, layout)
	if err != nil {
		return exec.OutputSpec{}, err
	}
	return exec.OutputSpec{Agg: -1, Expr: ce}, nil
}

func atomExprs(atoms []*queryinfo.Atom) []sqlparser.Expr {
	out := make([]sqlparser.Expr, len(atoms))
	for i, a := range atoms {
		out[i] = a.Expr
	}
	return out
}

func andAll(exprs []sqlparser.Expr) sqlparser.Expr {
	var out sqlparser.Expr
	for _, e := range exprs {
		if out == nil {
			out = e
		} else {
			out = &sqlparser.BinaryExpr{Op: "AND", Left: out, Right: e}
		}
	}
	return out
}

// buildOutputs fills projection, aggregation, grouping and ordering specs.
func (o *Optimizer) buildOutputs(sel *sqlparser.Select, info *queryinfo.Info, plan *exec.Plan) error {
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
			ce, err := exec.Compile(f.Args[0], layout)
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
		ce, err := exec.Compile(g, layout)
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

// BuildDMLPlan constructs the single-table locating plan for UPDATE/DELETE.
// It returns the plan plus the compiled SET assignments for updates.
func (o *Optimizer) BuildDMLPlan(stmt sqlparser.Statement) (*exec.Plan, []exec.Assignment, error) {
	var table string
	var where sqlparser.Expr
	var set []sqlparser.Assignment
	switch s := stmt.(type) {
	case *sqlparser.Update:
		table, where, set = s.Table, s.Where, s.Set
	case *sqlparser.Delete:
		table, where = s.Table, s.Where
	default:
		return nil, nil, fmt.Errorf("optimizer: BuildDMLPlan on %T", stmt)
	}
	sel := whereToSelect(table, where)
	p, err := o.planSelect(sel, nil)
	if err != nil {
		return nil, nil, err
	}
	plan, _, err := o.buildExecPlan(sel, p)
	if err != nil {
		return nil, nil, err
	}
	// The locating plan must not early-terminate or project.
	plan.Limit = -1
	plan.Grouped = false
	plan.Output = nil

	tbl := o.Schema.Table(table)
	var assigns []exec.Assignment
	for _, a := range set {
		ord := tbl.ColumnIndex(a.Column)
		if ord < 0 {
			return nil, nil, fmt.Errorf("optimizer: unknown column %q in SET", a.Column)
		}
		ce, err := exec.Compile(a.Value, plan.Layout)
		if err != nil {
			return nil, nil, err
		}
		assigns = append(assigns, exec.Assignment{Ordinal: ord, Value: ce})
	}
	return plan, assigns, nil
}
