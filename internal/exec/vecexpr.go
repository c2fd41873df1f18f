package exec

import (
	"strings"

	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// Three-valued predicate lanes. The batch driver evaluates filters into one
// int8 lane per batch row instead of boxing a sqltypes.Value per row; only
// triTrue rows survive into the selection vector, matching passes().
const (
	triFalse int8 = iota
	triTrue
	triNull
)

// vecPred evaluates a predicate over a batch, writing the three-valued
// result for every row index listed in sel into out (indexed by row, not by
// selection position). env is the outer env row the step scans for, the
// source of its batch constants. Implementations never error: compileVec only
// emits kernels for expression shapes whose compiled row closures cannot error
// either, so error ordering is owned entirely by the fallback closure path.
type vecPred func(a *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8)

// valSrc is a kernel operand: a column of the batch row, or a batch constant,
// one value for the whole kernel call, which is either a literal fixed at
// compile time or a column of the outer env row. It is the only operand shape
// the batch kernels accept; anything else (arithmetic, nested functions)
// falls back to the compiled closure.
type valSrc struct {
	off int // offset in the batch row, or -1 for a batch constant
	env int // offset of a batch constant in the outer env row, or -1 for a literal
	lit sqltypes.Value
}

// bind resolves a batch constant against the outer env row, once per kernel
// call.
func (s valSrc) bind(env []sqltypes.Value) valSrc {
	if s.env >= 0 {
		s.lit = env[s.env]
	}
	return s
}

func (s valSrc) get(row sqltypes.Row) sqltypes.Value {
	if s.off >= 0 {
		return row[s.off]
	}
	return s.lit
}

// scope is what a step's kernels are compiled against: the plan's layout and
// parameters, and the env-row segment [base, base+n) the step's batch rows
// hold. A column outside the segment is a batch constant.
type scope struct {
	l       *Layout
	params  []sqltypes.Value
	base, n int
}

func compileValSrc(e sqlparser.Expr, sc scope) (valSrc, bool) {
	switch v := e.(type) {
	case *sqlparser.Literal:
		return valSrc{off: -1, env: -1, lit: v.Val}, true
	case *sqlparser.Placeholder:
		if v.Ordinal < len(sc.params) {
			return valSrc{off: -1, env: -1, lit: sc.params[v.Ordinal]}, true
		}
	case *sqlparser.ColumnRef:
		off, err := sc.l.Resolve(v.Table, v.Column)
		if err != nil {
			return valSrc{}, false
		}
		if off >= sc.base && off < sc.base+sc.n {
			return valSrc{off: off - sc.base, env: -1}, true
		}
		return valSrc{off: -1, env: off}, true
	}
	return valSrc{}, false
}

// b2i is 1 for true and 0 for false. The compiler emits a flag move, not a
// branch, so a lane computed from it costs the same whatever the row holds.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func boolTri(b bool) int8 { return int8(b2i(b)) }

// The lane tables SQL's NOT, AND and OR read, indexed by operand lane.
var (
	notLanes = [3]int8{triFalse: triTrue, triTrue: triFalse, triNull: triNull}
	andLanes = [3][3]int8{
		triFalse: {triFalse, triFalse, triFalse},
		triTrue:  {triFalse, triTrue, triNull},
		triNull:  {triFalse, triNull, triNull},
	}
	orLanes = [3][3]int8{
		triFalse: {triFalse, triTrue, triNull},
		triTrue:  {triTrue, triTrue, triTrue},
		triNull:  {triNull, triTrue, triNull},
	}
)

// compileVec builds a batch predicate kernel for e, or returns nil when the
// expression is not vectorizable — callers then evaluate the compiled row
// closure per batch row, which is slower but produces identical results and
// identical error ordering. A composite expression vectorizes only if every
// subexpression does: partial vectorization of AND/OR could evaluate an
// erroring branch the row closure would have short-circuited past.
func compileVec(e sqlparser.Expr, sc scope) vecPred {
	if e == nil {
		return nil
	}
	switch v := e.(type) {
	case *sqlparser.Literal, *sqlparser.Placeholder, *sqlparser.ColumnRef:
		src, ok := compileValSrc(e, sc)
		if !ok {
			return nil
		}
		return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
			s := src.bind(env)
			for _, i := range sel {
				if val := s.get(rows[i]); val.IsNull() {
					out[i] = triNull
				} else {
					out[i] = boolTri(val.Bool())
				}
			}
		}
	case *sqlparser.BinaryExpr:
		return compileVecBinary(v, sc)
	case *sqlparser.NotExpr:
		inner := compileVec(v.Inner, sc)
		if inner == nil {
			return nil
		}
		return func(a *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
			inner(a, env, rows, sel, out)
			for _, i := range sel {
				out[i] = notLanes[out[i]]
			}
		}
	case *sqlparser.InExpr:
		return compileVecIn(v, sc)
	case *sqlparser.BetweenExpr:
		return compileVecBetween(v, sc)
	case *sqlparser.LikeExpr:
		return compileVecLike(v, sc)
	case *sqlparser.IsNullExpr:
		src, ok := compileValSrc(v.Left, sc)
		if !ok {
			return nil
		}
		not := v.Not
		return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
			s := src.bind(env)
			for _, i := range sel {
				out[i] = boolTri(s.get(rows[i]).IsNull() != not)
			}
		}
	}
	return nil
}

func compileVecBinary(v *sqlparser.BinaryExpr, sc scope) vecPred {
	switch v.Op {
	case "AND", "OR":
		left := compileVec(v.Left, sc)
		right := compileVec(v.Right, sc)
		if left == nil || right == nil {
			return nil
		}
		// The right operand runs only on the rows whose left lane is not
		// skip (AND: false, OR: true), as the row closure's short-circuit
		// does. The sub-selection is written unconditionally and advances by
		// the predicate bit; the two lanes combine through the table. The
		// kernel is built here: returned from a small helper that the
		// compiler inlines, it was compiled with b2i as a call per row.
		skip, table := triFalse, &andLanes
		if v.Op == "OR" {
			skip, table = triTrue, &orLanes
		}
		return func(a *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
			left(a, env, rows, sel, out)
			sub := a.getSel()[:len(sel)]
			n := 0
			for _, i := range sel {
				sub[n] = i
				n += b2i(out[i] != skip)
			}
			if n > 0 {
				rtri := a.getTri()
				right(a, env, rows, sub[:n], rtri)
				for _, i := range sub[:n] {
					out[i] = table[out[i]][rtri[i]]
				}
				a.putTri(rtri)
			}
			a.putSel(sub)
		}
	case "=", "!=", "<", "<=", ">", ">=", "<=>":
		ls, ok := compileValSrc(v.Left, sc)
		if !ok {
			return nil
		}
		rs, ok := compileValSrc(v.Right, sc)
		if !ok {
			return nil
		}
		return vecCmp(v.Op, ls, rs)
	}
	return nil
}

// vecCmp compiles a comparison to one lane table, built once: a row's
// outcome indexes it, 0 less, 1 equal, 2 greater and 3 a NULL operand, so the
// lane costs a subtraction and a load where a branch on the values would be
// mispredicted about half the time on a random filter value.
func vecCmp(op string, left, right valSrc) vecPred {
	var lanes [4]int8
	switch op {
	case "=", "<=>":
		lanes[1] = triTrue
	case "!=":
		lanes[0], lanes[2] = triTrue, triTrue
	case "<":
		lanes[0] = triTrue
	case "<=":
		lanes[0], lanes[1] = triTrue, triTrue
	case ">":
		lanes[2] = triTrue
	case ">=":
		lanes[1], lanes[2] = triTrue, triTrue
	}
	// A NULL operand makes every operator NULL but <=>, which is false when
	// one side alone is NULL.
	nullSafe := op == "<=>"
	lanes[3] = triNull
	if nullSafe {
		lanes[3] = triFalse
	}
	if left.off < 0 && right.off >= 0 {
		// Constant on the left: compare the other way round (c < x is x > c).
		left, right = right, left
		lanes[0], lanes[2] = lanes[2], lanes[0]
	}
	if right.off >= 0 || left.off < 0 {
		return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
			l, r := left.bind(env), right.bind(env)
			for _, i := range sel {
				av, bv := l.get(rows[i]), r.get(rows[i])
				k := 1 + sqltypes.ComparePtr(&av, &bv)
				if !nullSafe && (av.IsNull() || bv.IsNull()) {
					k = 3
				}
				out[i] = lanes[k]
			}
		}
	}
	// Column vs constant, the dominant filter shape (a literal, or the outer
	// row's join column): read the constant once, switch once per call on its
	// kind and once per row on the row value's kind (a column keeps one kind,
	// so that branch is predicted), and compute the outcome inline. The kind
	// cases reproduce Compare's rank order (numbers < strings) exactly.
	off := left.off
	return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		lit := right.bind(env).lit
		switch lit.Kind() {
		case sqltypes.KindNull:
			// Indexed by the row's NULLness: every operator but <=> is NULL.
			byNull := [2]int8{triNull, triNull}
			if nullSafe {
				byNull = [2]int8{triFalse, triTrue}
			}
			for _, i := range sel {
				out[i] = byNull[b2i(rows[i][off].IsNull())]
			}
		case sqltypes.KindInt, sqltypes.KindBool:
			litI := lit.Int()
			litF := float64(litI)
			for _, i := range sel {
				av := &rows[i][off]
				k := 3
				switch av.Kind() {
				case sqltypes.KindInt, sqltypes.KindBool:
					ai := av.Int()
					k = 1 + b2i(ai > litI) - b2i(ai < litI)
				case sqltypes.KindFloat:
					af := av.Float()
					k = 1 + b2i(af > litF) - b2i(af < litF)
				case sqltypes.KindString, sqltypes.KindBytes:
					k = 2
				}
				out[i] = lanes[k]
			}
		case sqltypes.KindFloat:
			litF := lit.Float()
			for _, i := range sel {
				av := &rows[i][off]
				k := 3
				switch av.Kind() {
				case sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindFloat:
					af := av.Float()
					k = 1 + b2i(af > litF) - b2i(af < litF)
				case sqltypes.KindString, sqltypes.KindBytes:
					k = 2
				}
				out[i] = lanes[k]
			}
		default:
			litS := lit.Str()
			for _, i := range sel {
				av := &rows[i][off]
				k := 3
				switch av.Kind() {
				case sqltypes.KindString, sqltypes.KindBytes:
					k = 1 + strings.Compare(av.Str(), litS)
				case sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindFloat:
					k = 0
				}
				out[i] = lanes[k]
			}
		}
	}
}

func compileVecIn(v *sqlparser.InExpr, sc scope) vecPred {
	src, ok := compileValSrc(v.Left, sc)
	if !ok {
		return nil
	}
	// lanes is indexed 0 no item equal, 1 an item equal, 2 a NULL value.
	lanes := [3]int8{boolTri(v.Not), boolTri(!v.Not), triNull}
	items := make([]sqltypes.Value, 0, len(v.List))
	for _, item := range v.List {
		lit, ok := item.(*sqlparser.Literal)
		if !ok {
			return nil
		}
		if lit.Val.IsNull() {
			lanes[0] = triNull
			continue
		}
		items = append(items, lit.Val)
	}
	return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		if s := src.bind(env); s.off < 0 {
			// Constant LHS: one result for every row.
			res := lanes[inIndex(&s.lit, items)]
			for _, i := range sel {
				out[i] = res
			}
			return
		}
		for _, i := range sel {
			out[i] = lanes[inIndex(&rows[i][src.off], items)]
		}
	}
}

// inIndex is 2 for a NULL value, else 1 if some non-NULL item equals it and
// 0 if none does. It compares with every item: no branch on a match.
func inIndex(val *sqltypes.Value, items []sqltypes.Value) int {
	if val.IsNull() {
		return 2
	}
	hit := 0
	for j := range items {
		hit |= b2i(sqltypes.ComparePtr(val, &items[j]) == 0)
	}
	return hit
}

func compileVecBetween(v *sqlparser.BetweenExpr, sc scope) vecPred {
	src, ok := compileValSrc(v.Left, sc)
	if !ok {
		return nil
	}
	lo, ok := compileValSrc(v.Low, sc)
	if !ok {
		return nil
	}
	hi, ok := compileValSrc(v.High, sc)
	if !ok {
		return nil
	}
	// lanes is indexed 0 outside, 1 inside, 2 a NULL operand.
	lanes := [3]int8{boolTri(v.Not), boolTri(!v.Not), triNull}
	return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		s, l, h := src.bind(env), lo.bind(env), hi.bind(env)
		for _, i := range sel {
			row := rows[i]
			val, lv, hv := s.get(row), l.get(row), h.get(row)
			k := 2
			if !val.IsNull() && !lv.IsNull() && !hv.IsNull() {
				k = b2i(sqltypes.ComparePtr(&val, &lv) >= 0) & b2i(sqltypes.ComparePtr(&val, &hv) <= 0)
			}
			out[i] = lanes[k]
		}
	}
}

func compileVecLike(v *sqlparser.LikeExpr, sc scope) vecPred {
	src, ok := compileValSrc(v.Left, sc)
	if !ok {
		return nil
	}
	pat, ok := compileValSrc(v.Pattern, sc)
	if !ok {
		return nil
	}
	not := v.Not
	return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		s, p := src.bind(env), pat.bind(env)
		for _, i := range sel {
			row := rows[i]
			val, pv := s.get(row), p.get(row)
			if val.IsNull() || pv.IsNull() {
				out[i] = triNull
				continue
			}
			out[i] = boolTri(like(val, pv) != not)
		}
	}
}
