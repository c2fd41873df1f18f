package sqlparser

import "aim/internal/sqltypes"

// Template is the normalized (parameterized) form of a statement per §III-A1
// of the AIM paper: every literal is replaced by `?` so queries with the same
// structure share a normalized text. IN lists of literals collapse to a
// single `?` so the list length does not fragment the grouping.
type Template struct {
	// Text is Stmt rendered: what the workload monitor groups by and the
	// planner's memo is keyed on.
	Text string
	// Stmt is the statement with each literal replaced by a placeholder whose
	// Ordinal indexes Params.
	Stmt Statement
	// Params holds the extracted values in syntax order (IN lists contribute
	// all of their members).
	Params []sqltypes.Value
	// Bypass is empty when executing Stmt with Params is executing the
	// statement. Otherwise it names why it is not — the plan's shape depends on
	// a literal, or the ordinals do not line up — and the statement must be
	// planned as written.
	Bypass string
}

// Bypass reasons.
const (
	BypassInList      = "in_list"     // IN lists collapse: ordinals no longer line up with Params
	BypassLike        = "like"        // the pattern's constant prefix decides whether LIKE is a range
	BypassMultiRow    = "multi_row"   // the template keeps the first row of a multi-row INSERT only
	BypassPlaceholder = "placeholder" // the statement already held an unbound `?`
	BypassProjection  = "projection"  // a literal outside WHERE / SET / VALUES: output names and ORDER BY matching render it
)

// BypassReasons lists every Bypass value.
var BypassReasons = []string{BypassInList, BypassLike, BypassMultiRow, BypassPlaceholder, BypassProjection}

// NewTemplate normalizes stmt.
func NewTemplate(stmt Statement) Template {
	r := &rewriter{}
	out := r.statement(stmt)
	return Template{Text: out.SQL(), Stmt: out, Params: r.params, Bypass: r.bypass}
}

// Normalize returns NewTemplate's text and parameter values.
func Normalize(stmt Statement) (string, []sqltypes.Value) {
	t := NewTemplate(stmt)
	return t.Text, t.Params
}

// rewriter deep-copies a statement, moving every literal into params behind
// a placeholder.
type rewriter struct {
	params []sqltypes.Value
	// The first Bypass reason met, and whether the walk is outside WHERE /
	// SET / VALUES.
	bypass  string
	outside bool
	// from, when not nil, is the parser's record of where each literal comes
	// from; sources then follows params with each parameter's source.
	from    map[*Literal]source
	sources []source
}

func (r *rewriter) note(reason string) {
	if r.bypass == "" {
		r.bypass = reason
	}
}

// extract is the leaf rule: v moves into params, behind a placeholder.
func (r *rewriter) extract(v sqltypes.Value) Expr {
	if r.outside {
		r.note(BypassProjection)
	}
	r.params = append(r.params, v)
	return &Placeholder{Ordinal: len(r.params) - 1}
}

func (r *rewriter) statement(stmt Statement) Statement {
	switch s := stmt.(type) {
	case *Select:
		out := *s
		out.Exprs = make([]*SelectExpr, len(s.Exprs))
		r.outside = true
		for i, se := range s.Exprs {
			cp := *se
			cp.Expr = r.expr(cp.Expr)
			out.Exprs[i] = &cp
		}
		r.outside = false
		out.Where = r.expr(s.Where)
		r.outside = true
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
		if len(out.Rows) > 1 {
			out.Rows = out.Rows[:1]
			r.note(BypassMultiRow)
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
		if r.from != nil {
			src, ok := r.from[v]
			if !ok {
				src = source{lit: -1, val: v.Val}
			}
			r.sources = append(r.sources, src)
		}
		return r.extract(v.Val)
	case *Placeholder:
		r.note(BypassPlaceholder)
		return r.extract(sqltypes.Null)
	case *BinaryExpr:
		return &BinaryExpr{Op: v.Op, Left: r.expr(v.Left), Right: r.expr(v.Right)}
	case *NotExpr:
		return &NotExpr{Inner: r.expr(v.Inner)}
	case *InExpr:
		// Collect every literal but render a single placeholder. A list with
		// any other member keeps its members, so that the template still
		// names every column the statement reads.
		r.note(BypassInList)
		for _, item := range v.List {
			if _, ok := item.(*Literal); !ok {
				return &InExpr{Left: r.expr(v.Left), List: r.exprs(v.List), Not: v.Not}
			}
		}
		for _, item := range v.List {
			r.params = append(r.params, item.(*Literal).Val)
		}
		return &InExpr{Left: r.expr(v.Left), List: []Expr{&Placeholder{}}, Not: v.Not}
	case *BetweenExpr:
		return &BetweenExpr{Left: r.expr(v.Left), Low: r.expr(v.Low), High: r.expr(v.High), Not: v.Not}
	case *LikeExpr:
		r.note(BypassLike)
		return &LikeExpr{Left: r.expr(v.Left), Pattern: r.expr(v.Pattern), Not: v.Not}
	case *IsNullExpr:
		return &IsNullExpr{Left: r.expr(v.Left), Not: v.Not}
	case *FuncExpr:
		return &FuncExpr{Name: v.Name, Args: r.exprs(v.Args), Star: v.Star}
	default:
		return e
	}
}
