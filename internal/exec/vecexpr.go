package exec

import (
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

func boolTri(b bool) int8 {
	if b {
		return triTrue
	}
	return triFalse
}

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
				switch out[i] {
				case triTrue:
					out[i] = triFalse
				case triFalse:
					out[i] = triTrue
				}
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
		if v.Op == "AND" {
			return vecAnd(left, right)
		}
		return vecOr(left, right)
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

func vecCmp(op string, left, right valSrc) vecPred {
	// Encode the operator as the set of accepted Compare signs; the kernel
	// loop then has no per-row indirect call.
	var accNeg, accZero, accPos bool
	switch op {
	case "=", "<=>":
		accZero = true
	case "!=":
		accNeg, accPos = true, true
	case "<":
		accNeg = true
	case "<=":
		accNeg, accZero = true, true
	case ">":
		accPos = true
	case ">=":
		accZero, accPos = true, true
	}
	if left.off < 0 && right.off >= 0 {
		// Constant on the left: compare the other way round (c < x is x > c).
		left, right, accNeg, accPos = right, left, accPos, accNeg
	}
	if op == "<=>" || right.off >= 0 || left.off < 0 {
		nullSafe := op == "<=>"
		return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
			l, r := left.bind(env), right.bind(env)
			for _, i := range sel {
				av, bv := l.get(rows[i]), r.get(rows[i])
				if !nullSafe && (av.IsNull() || bv.IsNull()) {
					out[i] = triNull
					continue
				}
				c := sqltypes.ComparePtr(&av, &bv)
				out[i] = boolTri(c < 0 && accNeg || c == 0 && accZero || c > 0 && accPos)
			}
		}
	}
	// Column vs constant, the dominant filter shape (a literal, or the outer
	// row's join column): read the constant once, index the batch row by
	// pointer (no 24-byte Value copies) and, for a numeric constant, inline
	// the comparison so the loop has no function call at all. The kind
	// switches reproduce Compare's rank ordering (numbers < strings) exactly.
	off := left.off
	return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		lit := right.bind(env).lit
		switch lit.Kind() {
		case sqltypes.KindNull:
			for _, i := range sel {
				out[i] = triNull
			}
		case sqltypes.KindInt, sqltypes.KindBool:
			litI := lit.Int()
			litF := float64(litI)
			for _, i := range sel {
				av := &rows[i][off]
				var c int
				switch av.Kind() {
				case sqltypes.KindNull:
					out[i] = triNull
					continue
				case sqltypes.KindInt, sqltypes.KindBool:
					if ai := av.Int(); ai < litI {
						c = -1
					} else if ai > litI {
						c = 1
					}
				case sqltypes.KindFloat:
					if af := av.Float(); af < litF {
						c = -1
					} else if af > litF {
						c = 1
					}
				default: // string-ish outranks numeric
					c = 1
				}
				out[i] = boolTri(c < 0 && accNeg || c == 0 && accZero || c > 0 && accPos)
			}
		case sqltypes.KindFloat:
			litF := lit.Float()
			for _, i := range sel {
				av := &rows[i][off]
				var c int
				switch av.Kind() {
				case sqltypes.KindNull:
					out[i] = triNull
					continue
				case sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindFloat:
					if af := av.Float(); af < litF {
						c = -1
					} else if af > litF {
						c = 1
					}
				default:
					c = 1
				}
				out[i] = boolTri(c < 0 && accNeg || c == 0 && accZero || c > 0 && accPos)
			}
		default:
			for _, i := range sel {
				av := &rows[i][off]
				if av.IsNull() {
					out[i] = triNull
					continue
				}
				c := sqltypes.ComparePtr(av, &lit)
				out[i] = boolTri(c < 0 && accNeg || c == 0 && accZero || c > 0 && accPos)
			}
		}
	}
}

// vecAnd evaluates the right operand only where the left is not false,
// mirroring the row closure's short-circuit; for surviving rows the combine
// is false-dominant, then null-dominant, like SQL three-valued AND.
func vecAnd(left, right vecPred) vecPred {
	return func(a *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		left(a, env, rows, sel, out)
		sub := a.getSel()
		for _, i := range sel {
			if out[i] != triFalse {
				sub = append(sub, i)
			}
		}
		if len(sub) > 0 {
			rtri := a.getTri()
			right(a, env, rows, sub, rtri)
			for _, i := range sub {
				switch {
				case rtri[i] == triFalse:
					out[i] = triFalse
				case rtri[i] == triNull || out[i] == triNull:
					out[i] = triNull
				default:
					out[i] = triTrue
				}
			}
			a.putTri(rtri)
		}
		a.putSel(sub)
	}
}

func vecOr(left, right vecPred) vecPred {
	return func(a *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		left(a, env, rows, sel, out)
		sub := a.getSel()
		for _, i := range sel {
			if out[i] != triTrue {
				sub = append(sub, i)
			}
		}
		if len(sub) > 0 {
			rtri := a.getTri()
			right(a, env, rows, sub, rtri)
			for _, i := range sub {
				switch {
				case rtri[i] == triTrue:
					out[i] = triTrue
				case rtri[i] == triNull || out[i] == triNull:
					out[i] = triNull
				default:
					out[i] = triFalse
				}
			}
			a.putTri(rtri)
		}
		a.putSel(sub)
	}
}

func compileVecIn(v *sqlparser.InExpr, sc scope) vecPred {
	src, ok := compileValSrc(v.Left, sc)
	if !ok {
		return nil
	}
	items := make([]sqltypes.Value, 0, len(v.List))
	hasNull := false
	for _, item := range v.List {
		lit, ok := item.(*sqlparser.Literal)
		if !ok {
			return nil
		}
		if lit.Val.IsNull() {
			hasNull = true
			continue
		}
		items = append(items, lit.Val)
	}
	not := v.Not
	return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		if s := src.bind(env); s.off < 0 {
			// Constant LHS: one result for every row.
			res := inTri(&s.lit, items, hasNull, not)
			for _, i := range sel {
				out[i] = res
			}
			return
		}
		for _, i := range sel {
			out[i] = inTri(&rows[i][src.off], items, hasNull, not)
		}
	}
}

// inTri is [NOT] IN over non-NULL literal items, hasNull marking a NULL item.
func inTri(val *sqltypes.Value, items []sqltypes.Value, hasNull, not bool) int8 {
	if val.IsNull() {
		return triNull
	}
	for j := range items {
		if sqltypes.ComparePtr(val, &items[j]) == 0 {
			return boolTri(!not)
		}
	}
	if hasNull {
		return triNull
	}
	return boolTri(not)
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
	not := v.Not
	return func(_ *batchArena, env []sqltypes.Value, rows []sqltypes.Row, sel []int32, out []int8) {
		s, l, h := src.bind(env), lo.bind(env), hi.bind(env)
		for _, i := range sel {
			row := rows[i]
			val, lv, hv := s.get(row), l.get(row), h.get(row)
			if val.IsNull() || lv.IsNull() || hv.IsNull() {
				out[i] = triNull
				continue
			}
			in := sqltypes.ComparePtr(&val, &lv) >= 0 && sqltypes.ComparePtr(&val, &hv) <= 0
			out[i] = boolTri(in != not)
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
			out[i] = boolTri(likeMatch(val.Str(), pv.Str()) != not)
		}
	}
}
