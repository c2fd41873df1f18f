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
// selection position). Implementations never error: compileVec only emits
// kernels for expression shapes whose compiled row closures cannot error
// either, so error ordering is owned entirely by the fallback closure path.
type vecPred func(a *batchArena, rows []sqltypes.Row, sel []int32, out []int8)

// valSrc is a per-row scalar source: a column offset in the env row or a
// literal. It is the only operand shape the batch kernels accept; anything
// else (arithmetic, nested functions) falls back to the compiled closure.
type valSrc struct {
	off int // -1 = literal
	lit sqltypes.Value
}

func (s valSrc) get(row sqltypes.Row) sqltypes.Value {
	if s.off >= 0 {
		return row[s.off]
	}
	return s.lit
}

func compileValSrc(e sqlparser.Expr, l *Layout, params []sqltypes.Value) (valSrc, bool) {
	switch v := e.(type) {
	case *sqlparser.Literal:
		return valSrc{off: -1, lit: v.Val}, true
	case *sqlparser.Placeholder:
		if v.Ordinal < len(params) {
			return valSrc{off: -1, lit: params[v.Ordinal]}, true
		}
	case *sqlparser.ColumnRef:
		off, err := l.Resolve(v.Table, v.Column)
		if err != nil {
			return valSrc{}, false
		}
		return valSrc{off: off}, true
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
func compileVec(e sqlparser.Expr, l *Layout, params []sqltypes.Value) vecPred {
	if e == nil {
		return nil
	}
	switch v := e.(type) {
	case *sqlparser.Literal:
		val := v.Val
		res := triNull
		if !val.IsNull() {
			res = boolTri(val.Bool())
		}
		return func(_ *batchArena, _ []sqltypes.Row, sel []int32, out []int8) {
			for _, i := range sel {
				out[i] = res
			}
		}
	case *sqlparser.ColumnRef:
		src, ok := compileValSrc(e, l, params)
		if !ok {
			return nil
		}
		return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
			for _, i := range sel {
				val := src.get(rows[i])
				if val.IsNull() {
					out[i] = triNull
				} else {
					out[i] = boolTri(val.Bool())
				}
			}
		}
	case *sqlparser.BinaryExpr:
		return compileVecBinary(v, l, params)
	case *sqlparser.NotExpr:
		inner := compileVec(v.Inner, l, params)
		if inner == nil {
			return nil
		}
		return func(a *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
			inner(a, rows, sel, out)
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
		return compileVecIn(v, l, params)
	case *sqlparser.BetweenExpr:
		return compileVecBetween(v, l, params)
	case *sqlparser.LikeExpr:
		return compileVecLike(v, l, params)
	case *sqlparser.IsNullExpr:
		src, ok := compileValSrc(v.Left, l, params)
		if !ok {
			return nil
		}
		not := v.Not
		return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
			for _, i := range sel {
				out[i] = boolTri(src.get(rows[i]).IsNull() != not)
			}
		}
	}
	return nil
}

func compileVecBinary(v *sqlparser.BinaryExpr, l *Layout, params []sqltypes.Value) vecPred {
	switch v.Op {
	case "AND", "OR":
		left := compileVec(v.Left, l, params)
		right := compileVec(v.Right, l, params)
		if left == nil || right == nil {
			return nil
		}
		if v.Op == "AND" {
			return vecAnd(left, right)
		}
		return vecOr(left, right)
	case "=", "!=", "<", "<=", ">", ">=", "<=>":
		ls, ok := compileValSrc(v.Left, l, params)
		if !ok {
			return nil
		}
		rs, ok := compileValSrc(v.Right, l, params)
		if !ok {
			return nil
		}
		return vecCmp(v.Op, ls, rs)
	}
	return nil
}

func vecCmp(op string, left, right valSrc) vecPred {
	if op == "<=>" {
		return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
			for _, i := range sel {
				out[i] = boolTri(sqltypes.Compare(left.get(rows[i]), right.get(rows[i])) == 0)
			}
		}
	}
	// Encode the operator as the set of accepted Compare signs; the kernel
	// loop then has no per-row indirect call.
	var accNeg, accZero, accPos bool
	switch op {
	case "=":
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
	default:
		return nil
	}
	if left.off >= 0 && right.off < 0 && !right.lit.IsNull() {
		// Column vs non-NULL literal, the dominant filter shape: hoist the
		// literal out of the loop, index the env row by pointer (no 40-byte
		// Value copies) and, for numeric literals, inline the comparison so
		// the loop has no function call at all. The kind switches reproduce
		// Compare's rank ordering (numbers < strings) exactly.
		lit := right.lit
		off := left.off
		switch lit.Kind() {
		case sqltypes.KindInt, sqltypes.KindBool:
			litI := lit.Int()
			litF := float64(litI)
			return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
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
			}
		case sqltypes.KindFloat:
			litF := lit.Float()
			return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
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
			}
		}
		return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
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
	return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
		for _, i := range sel {
			av, bv := left.get(rows[i]), right.get(rows[i])
			if av.IsNull() || bv.IsNull() {
				out[i] = triNull
				continue
			}
			c := sqltypes.ComparePtr(&av, &bv)
			out[i] = boolTri(c < 0 && accNeg || c == 0 && accZero || c > 0 && accPos)
		}
	}
}

// vecAnd evaluates the right operand only where the left is not false,
// mirroring the row closure's short-circuit; for surviving rows the combine
// is false-dominant, then null-dominant, like SQL three-valued AND.
func vecAnd(left, right vecPred) vecPred {
	return func(a *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
		left(a, rows, sel, out)
		sub := a.getSel()
		for _, i := range sel {
			if out[i] != triFalse {
				sub = append(sub, i)
			}
		}
		if len(sub) > 0 {
			rtri := a.getTri()
			right(a, rows, sub, rtri)
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
	return func(a *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
		left(a, rows, sel, out)
		sub := a.getSel()
		for _, i := range sel {
			if out[i] != triTrue {
				sub = append(sub, i)
			}
		}
		if len(sub) > 0 {
			rtri := a.getTri()
			right(a, rows, sub, rtri)
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

func compileVecIn(v *sqlparser.InExpr, l *Layout, params []sqltypes.Value) vecPred {
	src, ok := compileValSrc(v.Left, l, params)
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
	if src.off < 0 {
		// Literal LHS: resolve once, constant result for every row.
		val := src.lit
		res := triNull
		if !val.IsNull() {
			matched := false
			for j := range items {
				if sqltypes.ComparePtr(&val, &items[j]) == 0 {
					matched = true
					break
				}
			}
			switch {
			case matched:
				res = boolTri(!not)
			case hasNull:
				res = triNull
			default:
				res = boolTri(not)
			}
		}
		return func(_ *batchArena, _ []sqltypes.Row, sel []int32, out []int8) {
			for _, i := range sel {
				out[i] = res
			}
		}
	}
	off := src.off
	return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
		for _, i := range sel {
			val := &rows[i][off]
			if val.IsNull() {
				out[i] = triNull
				continue
			}
			matched := false
			for j := range items {
				if sqltypes.ComparePtr(val, &items[j]) == 0 {
					matched = true
					break
				}
			}
			switch {
			case matched:
				out[i] = boolTri(!not)
			case hasNull:
				out[i] = triNull
			default:
				out[i] = boolTri(not)
			}
		}
	}
}

func compileVecBetween(v *sqlparser.BetweenExpr, l *Layout, params []sqltypes.Value) vecPred {
	src, ok := compileValSrc(v.Left, l, params)
	if !ok {
		return nil
	}
	lo, ok := compileValSrc(v.Low, l, params)
	if !ok {
		return nil
	}
	hi, ok := compileValSrc(v.High, l, params)
	if !ok {
		return nil
	}
	not := v.Not
	return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
		for _, i := range sel {
			row := rows[i]
			val, lv, hv := src.get(row), lo.get(row), hi.get(row)
			if val.IsNull() || lv.IsNull() || hv.IsNull() {
				out[i] = triNull
				continue
			}
			in := sqltypes.ComparePtr(&val, &lv) >= 0 && sqltypes.ComparePtr(&val, &hv) <= 0
			out[i] = boolTri(in != not)
		}
	}
}

func compileVecLike(v *sqlparser.LikeExpr, l *Layout, params []sqltypes.Value) vecPred {
	src, ok := compileValSrc(v.Left, l, params)
	if !ok {
		return nil
	}
	pat, ok := compileValSrc(v.Pattern, l, params)
	if !ok {
		return nil
	}
	not := v.Not
	return func(_ *batchArena, rows []sqltypes.Row, sel []int32, out []int8) {
		for _, i := range sel {
			row := rows[i]
			val, pv := src.get(row), pat.get(row)
			if val.IsNull() || pv.IsNull() {
				out[i] = triNull
				continue
			}
			out[i] = boolTri(likeMatch(val.Str(), pv.Str()) != not)
		}
	}
}
