package exec

import (
	"fmt"
	"strconv"
	"strings"

	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// CompiledExpr evaluates an expression against the flat env row buffer.
type CompiledExpr func(env []sqltypes.Value) (sqltypes.Value, error)

// Compile resolves every column reference in e against the layout and
// returns a closure tree. A placeholder compiles to the value params holds at
// its ordinal, as the literal would have; one params does not reach (nil
// params: a statement executed as written) is an error.
func Compile(e sqlparser.Expr, l *Layout, params []sqltypes.Value) (CompiledExpr, error) {
	switch v := e.(type) {
	case *sqlparser.Literal:
		val := v.Val
		return func([]sqltypes.Value) (sqltypes.Value, error) { return val, nil }, nil
	case *sqlparser.Placeholder:
		if v.Ordinal >= len(params) {
			return nil, fmt.Errorf("exec: unbound placeholder")
		}
		val := params[v.Ordinal]
		return func([]sqltypes.Value) (sqltypes.Value, error) { return val, nil }, nil
	case *sqlparser.ColumnRef:
		off, err := l.Resolve(v.Table, v.Column)
		if err != nil {
			return nil, err
		}
		return func(env []sqltypes.Value) (sqltypes.Value, error) { return env[off], nil }, nil
	case *sqlparser.BinaryExpr:
		return compileBinary(v, l, params)
	case *sqlparser.NotExpr:
		inner, err := Compile(v.Inner, l, params)
		if err != nil {
			return nil, err
		}
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			val, err := inner(env)
			if err != nil || val.IsNull() {
				return val, err
			}
			return sqltypes.NewBool(!val.Bool()), nil
		}, nil
	case *sqlparser.InExpr:
		return compileIn(v, l, params)
	case *sqlparser.BetweenExpr:
		return compileBetween(v, l, params)
	case *sqlparser.LikeExpr:
		return compileLike(v, l, params)
	case *sqlparser.IsNullExpr:
		inner, err := Compile(v.Left, l, params)
		if err != nil {
			return nil, err
		}
		not := v.Not
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			val, err := inner(env)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(val.IsNull() != not), nil
		}, nil
	case *sqlparser.FuncExpr:
		return compileScalarFunc(v, l, params)
	default:
		return nil, fmt.Errorf("exec: cannot compile %T", e)
	}
}

func compileBinary(v *sqlparser.BinaryExpr, l *Layout, params []sqltypes.Value) (CompiledExpr, error) {
	left, err := Compile(v.Left, l, params)
	if err != nil {
		return nil, err
	}
	right, err := Compile(v.Right, l, params)
	if err != nil {
		return nil, err
	}
	op := v.Op
	switch op {
	case "AND":
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			a, err := left(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if !a.IsNull() && !a.Bool() {
				return sqltypes.NewBool(false), nil
			}
			b, err := right(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if !b.IsNull() && !b.Bool() {
				return sqltypes.NewBool(false), nil
			}
			if a.IsNull() || b.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(true), nil
		}, nil
	case "OR":
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			a, err := left(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if !a.IsNull() && a.Bool() {
				return sqltypes.NewBool(true), nil
			}
			b, err := right(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if !b.IsNull() && b.Bool() {
				return sqltypes.NewBool(true), nil
			}
			if a.IsNull() || b.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(false), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=", "<=>":
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			a, err := left(env)
			if err != nil {
				return sqltypes.Null, err
			}
			b, err := right(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if op == "<=>" {
				return sqltypes.NewBool(sqltypes.Compare(a, b) == 0), nil
			}
			if a.IsNull() || b.IsNull() {
				return sqltypes.Null, nil
			}
			c := sqltypes.Compare(a, b)
			var r bool
			switch op {
			case "=":
				r = c == 0
			case "!=":
				r = c != 0
			case "<":
				r = c < 0
			case "<=":
				r = c <= 0
			case ">":
				r = c > 0
			case ">=":
				r = c >= 0
			}
			return sqltypes.NewBool(r), nil
		}, nil
	case "+", "-", "*", "/", "%":
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			a, err := left(env)
			if err != nil {
				return sqltypes.Null, err
			}
			b, err := right(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if a.IsNull() || b.IsNull() {
				return sqltypes.Null, nil
			}
			return arith(op, a, b)
		}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported operator %q", op)
	}
}

func arith(op string, a, b sqltypes.Value) (sqltypes.Value, error) {
	if !a.IsNumeric() || !b.IsNumeric() {
		return sqltypes.Null, fmt.Errorf("exec: %s on non-numeric values", op)
	}
	if a.Kind() == sqltypes.KindInt && b.Kind() == sqltypes.KindInt && op != "/" {
		x, y := a.Int(), b.Int()
		switch op {
		case "+":
			return sqltypes.NewInt(x + y), nil
		case "-":
			return sqltypes.NewInt(x - y), nil
		case "*":
			return sqltypes.NewInt(x * y), nil
		case "%":
			if y == 0 {
				return sqltypes.Null, nil
			}
			return sqltypes.NewInt(x % y), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case "+":
		return sqltypes.NewFloat(x + y), nil
	case "-":
		return sqltypes.NewFloat(x - y), nil
	case "*":
		return sqltypes.NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return sqltypes.Null, nil
		}
		return sqltypes.NewFloat(x / y), nil
	case "%":
		if y == 0 {
			return sqltypes.Null, nil
		}
		return sqltypes.NewFloat(float64(int64(x) % int64(y))), nil
	}
	return sqltypes.Null, fmt.Errorf("exec: bad arithmetic op %q", op)
}

func compileIn(v *sqlparser.InExpr, l *Layout, params []sqltypes.Value) (CompiledExpr, error) {
	left, err := Compile(v.Left, l, params)
	if err != nil {
		return nil, err
	}
	items := make([]CompiledExpr, len(v.List))
	for i, item := range v.List {
		items[i], err = Compile(item, l, params)
		if err != nil {
			return nil, err
		}
	}
	not := v.Not
	return func(env []sqltypes.Value) (sqltypes.Value, error) {
		val, err := left(env)
		if err != nil {
			return sqltypes.Null, err
		}
		if val.IsNull() {
			return sqltypes.Null, nil
		}
		sawNull := false
		for _, item := range items {
			iv, err := item(env)
			if err != nil {
				return sqltypes.Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if sqltypes.Compare(val, iv) == 0 {
				return sqltypes.NewBool(!not), nil
			}
		}
		if sawNull {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(not), nil
	}, nil
}

func compileBetween(v *sqlparser.BetweenExpr, l *Layout, params []sqltypes.Value) (CompiledExpr, error) {
	left, err := Compile(v.Left, l, params)
	if err != nil {
		return nil, err
	}
	lo, err := Compile(v.Low, l, params)
	if err != nil {
		return nil, err
	}
	hi, err := Compile(v.High, l, params)
	if err != nil {
		return nil, err
	}
	not := v.Not
	return func(env []sqltypes.Value) (sqltypes.Value, error) {
		val, err := left(env)
		if err != nil {
			return sqltypes.Null, err
		}
		lv, err := lo(env)
		if err != nil {
			return sqltypes.Null, err
		}
		hv, err := hi(env)
		if err != nil {
			return sqltypes.Null, err
		}
		if val.IsNull() || lv.IsNull() || hv.IsNull() {
			return sqltypes.Null, nil
		}
		in := sqltypes.Compare(val, lv) >= 0 && sqltypes.Compare(val, hv) <= 0
		return sqltypes.NewBool(in != not), nil
	}, nil
}

func compileLike(v *sqlparser.LikeExpr, l *Layout, params []sqltypes.Value) (CompiledExpr, error) {
	left, err := Compile(v.Left, l, params)
	if err != nil {
		return nil, err
	}
	pat, err := Compile(v.Pattern, l, params)
	if err != nil {
		return nil, err
	}
	not := v.Not
	return func(env []sqltypes.Value) (sqltypes.Value, error) {
		val, err := left(env)
		if err != nil {
			return sqltypes.Null, err
		}
		pv, err := pat(env)
		if err != nil {
			return sqltypes.Null, err
		}
		if val.IsNull() || pv.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(like(val, pv) != not), nil
	}, nil
}

// like is val LIKE pat over two non-NULL values. A number matches as its
// decimal text, as MySQL matches it: 12 LIKE '1%' holds and TRUE is 1.
func like(val, pat sqltypes.Value) bool { return likeMatch(likeText(val), likeText(pat)) }

func likeText(v sqltypes.Value) string {
	switch v.Kind() {
	case sqltypes.KindInt, sqltypes.KindBool:
		return strconv.FormatInt(v.Int(), 10)
	case sqltypes.KindFloat:
		return v.String()
	}
	return v.Str()
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one byte).
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking on %.
	si, pi := 0, 0
	starSI, starPI := -1, -1
	for si < len(s) {
		if pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(pattern) && pattern[pi] == '%' {
			starPI = pi
			starSI = si
			pi++
		} else if starPI >= 0 {
			starSI++
			si = starSI
			pi = starPI + 1
		} else {
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// LikePrefix extracts the constant prefix of a LIKE pattern (text before the
// first wildcard). A non-empty prefix makes the predicate range-scannable.
func LikePrefix(pattern string) string {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 {
		return pattern
	}
	return pattern[:i]
}

func compileScalarFunc(v *sqlparser.FuncExpr, l *Layout, params []sqltypes.Value) (CompiledExpr, error) {
	if v.IsAggregate() {
		return nil, fmt.Errorf("exec: aggregate %s not allowed here", v.Name)
	}
	switch v.Name {
	case "ABS":
		if len(v.Args) != 1 {
			return nil, fmt.Errorf("exec: ABS takes 1 argument")
		}
		arg, err := Compile(v.Args[0], l, params)
		if err != nil {
			return nil, err
		}
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			a, err := arg(env)
			if err != nil || a.IsNull() {
				return a, err
			}
			if a.Kind() == sqltypes.KindInt && a.Int() < 0 {
				return sqltypes.NewInt(-a.Int()), nil
			}
			if a.Kind() == sqltypes.KindFloat && a.Float() < 0 {
				return sqltypes.NewFloat(-a.Float()), nil
			}
			return a, nil
		}, nil
	case "LENGTH":
		if len(v.Args) != 1 {
			return nil, fmt.Errorf("exec: LENGTH takes 1 argument")
		}
		arg, err := Compile(v.Args[0], l, params)
		if err != nil {
			return nil, err
		}
		return func(env []sqltypes.Value) (sqltypes.Value, error) {
			a, err := arg(env)
			if err != nil || a.IsNull() {
				return a, err
			}
			return sqltypes.NewInt(int64(len(a.Str()))), nil
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown function %s", v.Name)
	}
}
