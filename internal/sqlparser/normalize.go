package sqlparser

import (
	"fmt"

	"aim/internal/sqltypes"
)

// Normalize returns the normalized (parameterized) form of a statement per
// §III-A1 of the AIM paper: every literal is replaced by `?` so queries with
// the same structure share a normalized text. IN lists collapse to a single
// `?` so the list length does not fragment the grouping. The extracted
// parameter values are returned in syntax order (IN lists contribute all of
// their members).
func Normalize(stmt Statement) (string, []sqltypes.Value) {
	r := &rewriter{}
	out := r.statement(stmt)
	return out.SQL(), r.params
}

// Bind substitutes placeholder markers in stmt with the given parameter
// values, returning a deep copy. Placeholders are matched positionally in
// syntax order.
func Bind(stmt Statement, params []sqltypes.Value) (Statement, error) {
	r := &rewriter{bind: true, params: params}
	out := r.statement(stmt)
	if r.next > len(params) {
		return nil, fmt.Errorf("sql: not enough bind parameters (have %d)", len(params))
	}
	return out, nil
}

// rewriter deep-copies a statement, passing every literal and placeholder
// through one of two leaf rules: extract (Normalize) or fill (Bind).
type rewriter struct {
	bind   bool
	params []sqltypes.Value
	next   int // bind: parameters consumed, counting past the end
}

// extract is Normalize's leaf rule: v moves into params, behind a placeholder.
func (r *rewriter) extract(v sqltypes.Value) Expr {
	r.params = append(r.params, v)
	return &Placeholder{Ordinal: len(r.params) - 1}
}

// fill is Bind's leaf rule: a placeholder becomes the next parameter.
func (r *rewriter) fill() Expr {
	r.next++
	if r.next > len(r.params) {
		return &Literal{Val: sqltypes.Null}
	}
	return &Literal{Val: r.params[r.next-1]}
}

func (r *rewriter) statement(stmt Statement) Statement {
	switch s := stmt.(type) {
	case *Select:
		out := *s
		out.Exprs = make([]*SelectExpr, len(s.Exprs))
		for i, se := range s.Exprs {
			cp := *se
			cp.Expr = r.expr(cp.Expr)
			out.Exprs[i] = &cp
		}
		out.Where = r.expr(s.Where)
		out.GroupBy = r.exprs(s.GroupBy)
		out.OrderBy = make([]*OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			out.OrderBy[i] = &OrderItem{Expr: r.expr(o.Expr), Desc: o.Desc}
		}
		return &out
	case *Insert:
		out := *s
		out.Rows = make([][]Expr, len(s.Rows))
		for i, row := range s.Rows {
			out.Rows[i] = r.exprs(row)
		}
		// Multi-row inserts normalize to a single parameterized row so that
		// batch sizes do not fragment grouping.
		if !r.bind && len(out.Rows) > 1 {
			out.Rows = out.Rows[:1]
		}
		return &out
	case *Update:
		out := *s
		out.Set = make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			out.Set[i] = Assignment{Column: a.Column, Value: r.expr(a.Value)}
		}
		out.Where = r.expr(s.Where)
		return &out
	case *Delete:
		out := *s
		out.Where = r.expr(s.Where)
		return &out
	default:
		return stmt
	}
}

func (r *rewriter) exprs(in []Expr) []Expr {
	if in == nil {
		return nil
	}
	out := make([]Expr, len(in))
	for i, e := range in {
		out[i] = r.expr(e)
	}
	return out
}

// expr rewrites one expression; nil (no WHERE, the * of COUNT(*)) stays nil.
func (r *rewriter) expr(e Expr) Expr {
	switch v := e.(type) {
	case *Literal:
		if r.bind {
			return e
		}
		return r.extract(v.Val)
	case *Placeholder:
		if r.bind {
			return r.fill()
		}
		return r.extract(sqltypes.Null)
	case *BinaryExpr:
		return &BinaryExpr{Op: v.Op, Left: r.expr(v.Left), Right: r.expr(v.Right)}
	case *NotExpr:
		return &NotExpr{Inner: r.expr(v.Inner)}
	case *InExpr:
		if r.bind {
			return &InExpr{Left: r.expr(v.Left), List: r.exprs(v.List), Not: v.Not}
		}
		// Collect every literal but render a single placeholder.
		for _, item := range v.List {
			if lit, ok := item.(*Literal); ok {
				r.params = append(r.params, lit.Val)
			}
		}
		return &InExpr{Left: r.expr(v.Left), List: []Expr{&Placeholder{}}, Not: v.Not}
	case *BetweenExpr:
		return &BetweenExpr{Left: r.expr(v.Left), Low: r.expr(v.Low), High: r.expr(v.High), Not: v.Not}
	case *LikeExpr:
		return &LikeExpr{Left: r.expr(v.Left), Pattern: r.expr(v.Pattern), Not: v.Not}
	case *IsNullExpr:
		return &IsNullExpr{Left: r.expr(v.Left), Not: v.Not}
	case *FuncExpr:
		return &FuncExpr{Name: v.Name, Args: r.exprs(v.Args), Star: v.Star}
	default:
		return e
	}
}
