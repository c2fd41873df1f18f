// Package queryinfo binds a parsed SELECT against a catalog and extracts the
// structural metadata AIM reasons about (Table I of the paper): which columns
// appear in filter, join, group-by, order-by and projection roles, the table
// join graph, and the AND-OR structure of the selection predicate.
//
// Both the optimizer (for access-path selection) and the AIM candidate
// generator (Algorithms 2-7) consume this analysis.
package queryinfo

import (
	"fmt"
	"strings"

	"aim/internal/catalog"
	"aim/internal/exec"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// AtomOp classifies an atomic predicate by how an index can use it.
type AtomOp int

// Atom operators. Eq-like operators (Eq, NullSafeEq, In) are index prefix
// predicates (IPP) per §IV-B2: matching rows share a constant key prefix.
const (
	OpEq AtomOp = iota
	OpNullSafeEq
	OpIn
	OpRange      // <, <=, >, >=, BETWEEN
	OpLikePrefix // LIKE with a non-empty constant prefix
	OpIsNull
	OpOther
)

func (op AtomOp) String() string {
	switch op {
	case OpEq:
		return "EQ"
	case OpNullSafeEq:
		return "NULLSAFE_EQ"
	case OpIn:
		return "IN"
	case OpRange:
		return "RANGE"
	case OpLikePrefix:
		return "LIKE_PREFIX"
	case OpIsNull:
		return "IS_NULL"
	default:
		return "OTHER"
	}
}

// IsIPP reports whether the operator forms an index prefix predicate.
func (op AtomOp) IsIPP() bool {
	return op == OpEq || op == OpNullSafeEq || op == OpIn || op == OpIsNull
}

// Atom is an atomic single-table predicate of the form `column op constant`.
// A comparand is a literal (EqValue, Lo, Hi) or a placeholder (EqParam,
// LoParam, HiParam: its ordinal plus one), whose value is unknown until a
// parameter vector is supplied — see Eq, Low and High.
type Atom struct {
	Instance int    // table instance ordinal
	Column   string // lower-cased column name
	Op       AtomOp
	Expr     sqlparser.Expr
	// Eq/NullSafeEq value, or nil when the comparand is a placeholder.
	EqValue *sqltypes.Value
	EqParam int
	// In list values (literals only).
	InValues []sqltypes.Value
	// Range bounds; nil pointer = unbounded / unknown.
	Lo, Hi           *sqltypes.Value
	LoParam, HiParam int
	LoInc, HiInc     bool
	// LikePrefix holds the constant prefix for OpLikePrefix.
	LikePrefix string
}

// Eq returns the Eq/NullSafeEq comparand under params: the literal, the bound
// parameter, or nil when it is a placeholder params does not reach (nil params:
// shape-only costing).
func (a *Atom) Eq(params []sqltypes.Value) *sqltypes.Value {
	return comparand(a.EqValue, a.EqParam, params)
}

// Low returns the lower range bound under params, like Eq.
func (a *Atom) Low(params []sqltypes.Value) *sqltypes.Value {
	return comparand(a.Lo, a.LoParam, params)
}

// High returns the upper range bound under params, like Eq.
func (a *Atom) High(params []sqltypes.Value) *sqltypes.Value {
	return comparand(a.Hi, a.HiParam, params)
}

func comparand(lit *sqltypes.Value, param int, params []sqltypes.Value) *sqltypes.Value {
	if lit == nil && param > 0 && param <= len(params) {
		return &params[param-1]
	}
	return lit
}

// JoinEdge is one equality predicate between columns of two instances.
type JoinEdge struct {
	LeftInstance  int
	LeftColumn    string
	RightInstance int
	RightColumn   string
	Expr          sqlparser.Expr
}

// Other returns the opposite instance/column of the edge relative to inst,
// and ok=false when the edge does not touch inst.
func (e JoinEdge) Other(inst int) (otherInst int, thisCol, otherCol string, ok bool) {
	switch inst {
	case e.LeftInstance:
		return e.RightInstance, e.LeftColumn, e.RightColumn, true
	case e.RightInstance:
		return e.LeftInstance, e.RightColumn, e.LeftColumn, true
	}
	return 0, "", "", false
}

// OrderColumn is one ORDER BY element resolved to an instance column.
type OrderColumn struct {
	Instance int
	Column   string
	Desc     bool
}

// Conjunct is one top-level AND factor of the WHERE clause.
type Conjunct struct {
	Expr      sqlparser.Expr
	Instances []int // instance ordinals referenced, sorted
	// Atom is non-nil when the conjunct is a recognizable single-table atom.
	Atom *Atom
	// Join is non-nil when the conjunct is an equality between two columns
	// of different instances.
	Join *JoinEdge
}

// Info is the full structural analysis of one SELECT.
type Info struct {
	Select    *sqlparser.Select
	Layout    *exec.Layout
	Conjuncts []*Conjunct
	JoinEdges []JoinEdge
	// Per-instance metadata, indexed by instance ordinal.
	FilterAtoms [][]*Atom     // atoms from top-level conjuncts
	GroupBy     []OrderColumn // resolved GROUP BY columns (in clause order)
	OrderBy     []OrderColumn // resolved ORDER BY columns (in clause order)
	Referenced  [][]string    // all referenced column names per instance
	SelectsStar bool
	Aggregates  []*sqlparser.FuncExpr
}

// Analyze binds sel against the schema and extracts structural metadata.
func Analyze(sel *sqlparser.Select, schema *catalog.Schema) (*Info, error) {
	instances := make([]exec.Instance, len(sel.Tables))
	for i, tr := range sel.Tables {
		tbl := schema.Table(tr.Name)
		if tbl == nil {
			return nil, fmt.Errorf("queryinfo: unknown table %q", tr.Name)
		}
		instances[i] = exec.Instance{Alias: tr.EffectiveAlias(), Table: tbl}
	}
	layout := exec.NewLayout(instances)
	info := &Info{
		Select:      sel,
		Layout:      layout,
		FilterAtoms: make([][]*Atom, len(instances)),
		Referenced:  make([][]string, len(instances)),
	}

	refSets := make([]map[string]bool, len(instances))
	for i := range refSets {
		refSets[i] = map[string]bool{}
	}
	addRef := func(e sqlparser.Expr) error {
		var err error
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if c, ok := x.(*sqlparser.ColumnRef); ok {
				inst, col, rerr := resolveRef(layout, c)
				if rerr != nil {
					err = rerr
					return false
				}
				refSets[inst][col] = true
			}
			return true
		})
		return err
	}

	// Projection.
	for _, se := range sel.Exprs {
		if se.Star {
			info.SelectsStar = true
			if se.Table == "" {
				for i, in := range instances {
					for _, c := range in.Table.ColumnNames() {
						refSets[i][strings.ToLower(c)] = true
					}
				}
			} else {
				i := layout.InstanceOf(se.Table)
				if i < 0 {
					return nil, fmt.Errorf("queryinfo: unknown table %q in projection", se.Table)
				}
				for _, c := range instances[i].Table.ColumnNames() {
					refSets[i][strings.ToLower(c)] = true
				}
			}
			continue
		}
		if err := addRef(se.Expr); err != nil {
			return nil, err
		}
		sqlparser.WalkExpr(se.Expr, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
				info.Aggregates = append(info.Aggregates, f)
			}
			return true
		})
	}

	// WHERE conjuncts.
	if sel.Where != nil {
		if err := addRef(sel.Where); err != nil {
			return nil, err
		}
		for _, e := range SplitAnd(sel.Where) {
			cj, err := classifyConjunct(e, layout)
			if err != nil {
				return nil, err
			}
			info.Conjuncts = append(info.Conjuncts, cj)
			if cj.Atom != nil {
				info.FilterAtoms[cj.Atom.Instance] = append(info.FilterAtoms[cj.Atom.Instance], cj.Atom)
			}
			if cj.Join != nil {
				info.JoinEdges = append(info.JoinEdges, *cj.Join)
			}
		}
	}

	// GROUP BY / ORDER BY. Bare references to select-list aliases (e.g.
	// ORDER BY n for COUNT(*) AS n) are legal and simply do not resolve to
	// a table column; they never generate index candidates.
	aliases := map[string]bool{}
	for _, se := range sel.Exprs {
		if se.Alias != "" {
			aliases[strings.ToLower(se.Alias)] = true
		}
	}
	isAliasRef := func(e sqlparser.Expr) bool {
		c, ok := e.(*sqlparser.ColumnRef)
		return ok && c.Table == "" && aliases[strings.ToLower(c.Column)]
	}
	for _, g := range sel.GroupBy {
		if isAliasRef(g) {
			continue
		}
		if err := addRef(g); err != nil {
			return nil, err
		}
		if c, ok := g.(*sqlparser.ColumnRef); ok {
			inst, col, err := resolveRef(layout, c)
			if err != nil {
				return nil, err
			}
			info.GroupBy = append(info.GroupBy, OrderColumn{Instance: inst, Column: col})
		}
	}
	for _, o := range sel.OrderBy {
		if isAliasRef(o.Expr) {
			continue
		}
		if err := addRef(o.Expr); err != nil {
			return nil, err
		}
		if c, ok := o.Expr.(*sqlparser.ColumnRef); ok {
			inst, col, err := resolveRef(layout, c)
			if err != nil {
				return nil, err
			}
			info.OrderBy = append(info.OrderBy, OrderColumn{Instance: inst, Column: col, Desc: o.Desc})
		}
	}

	for i, set := range refSets {
		for c := range set {
			info.Referenced[i] = append(info.Referenced[i], c)
		}
		sortStrings(info.Referenced[i])
	}
	return info, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// resolveRef maps a column reference to (instance ordinal, lower column).
func resolveRef(l *exec.Layout, c *sqlparser.ColumnRef) (int, string, error) {
	off, err := l.Resolve(c.Table, c.Column)
	if err != nil {
		return 0, "", err
	}
	inst := l.InstanceForOffset(off)
	return inst, strings.ToLower(c.Column), nil
}

// SplitAnd flattens a conjunction into its factors.
func SplitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(SplitAnd(b.Left), SplitAnd(b.Right)...)
	}
	return []sqlparser.Expr{e}
}

// SplitOr flattens a disjunction into its terms.
func SplitOr(e sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "OR" {
		return append(SplitOr(b.Left), SplitOr(b.Right)...)
	}
	return []sqlparser.Expr{e}
}

func classifyConjunct(e sqlparser.Expr, l *exec.Layout) (*Conjunct, error) {
	cj := &Conjunct{Expr: e}
	instSet := map[int]bool{}
	var err error
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if c, ok := x.(*sqlparser.ColumnRef); ok {
			inst, _, rerr := resolveRef(l, c)
			if rerr != nil {
				err = rerr
				return false
			}
			instSet[inst] = true
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	for i := range instSet {
		cj.Instances = append(cj.Instances, i)
	}
	sortInts(cj.Instances)

	switch len(cj.Instances) {
	case 1:
		cj.Atom = classifyAtom(e, l, cj.Instances[0])
	case 2:
		cj.Join = classifyJoin(e, l)
	}
	return cj, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ClassifyAtom classifies a single-table predicate over the given instance.
// It returns an Atom with op OpOther when the shape is not index-usable.
func ClassifyAtom(e sqlparser.Expr, l *exec.Layout, inst int) *Atom {
	return classifyAtom(e, l, inst)
}

func classifyAtom(e sqlparser.Expr, l *exec.Layout, inst int) *Atom {
	a := &Atom{Instance: inst, Op: OpOther, Expr: e}
	col := func(x sqlparser.Expr) (string, bool) {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return "", false
		}
		return strings.ToLower(c.Column), true
	}
	lit := func(x sqlparser.Expr) (*sqltypes.Value, int, bool) {
		switch v := x.(type) {
		case *sqlparser.Literal:
			val := v.Val
			return &val, 0, true
		case *sqlparser.Placeholder:
			return nil, v.Ordinal + 1, true // shape is usable, value arrives with the parameters
		}
		return nil, 0, false
	}
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		c, okL := col(v.Left)
		val, param, okR := lit(v.Right)
		op := v.Op
		if !okL || !okR {
			// Try the flipped orientation, e.g. 5 < col.
			if c2, ok := col(v.Right); ok {
				if val2, param2, ok2 := lit(v.Left); ok2 {
					c, val, param, okL, okR = c2, val2, param2, true, true
					op = flipOp(op)
				}
			}
		}
		if !okL || !okR {
			return a
		}
		a.Column = c
		switch op {
		case "=":
			a.Op = OpEq
			a.EqValue, a.EqParam = val, param
		case "<=>":
			a.Op = OpNullSafeEq
			a.EqValue, a.EqParam = val, param
		case "<", "<=":
			a.Op = OpRange
			a.Hi, a.HiParam = val, param
			a.HiInc = op == "<="
		case ">", ">=":
			a.Op = OpRange
			a.Lo, a.LoParam = val, param
			a.LoInc = op == ">="
		default:
			a.Op = OpOther
		}
		return a
	case *sqlparser.InExpr:
		if v.Not {
			return a
		}
		c, ok := col(v.Left)
		if !ok {
			return a
		}
		a.Column = c
		a.Op = OpIn
		for _, item := range v.List {
			if litv, ok := item.(*sqlparser.Literal); ok {
				a.InValues = append(a.InValues, litv.Val)
			}
		}
		return a
	case *sqlparser.BetweenExpr:
		if v.Not {
			return a
		}
		c, ok := col(v.Left)
		if !ok {
			return a
		}
		lo, loParam, okLo := lit(v.Low)
		hi, hiParam, okHi := lit(v.High)
		if !okLo || !okHi {
			return a
		}
		a.Column = c
		a.Op = OpRange
		a.Lo, a.Hi = lo, hi
		a.LoParam, a.HiParam = loParam, hiParam
		a.LoInc, a.HiInc = true, true
		return a
	case *sqlparser.LikeExpr:
		if v.Not {
			return a
		}
		c, ok := col(v.Left)
		if !ok {
			return a
		}
		pat, ok := v.Pattern.(*sqlparser.Literal)
		if !ok {
			return a
		}
		// A range over string keys misses a number, which LIKE matches as
		// its decimal text: no range for a prefix such text can start.
		prefix := exec.LikePrefix(pat.Val.Str())
		if prefix == "" || prefix[0] == '-' || prefix[0] >= '0' && prefix[0] <= '9' ||
			strings.HasPrefix("+Inf", prefix) || strings.HasPrefix("NaN", prefix) {
			return a
		}
		a.Column = c
		a.Op = OpLikePrefix
		a.LikePrefix = prefix
		lo := sqltypes.NewString(prefix)
		hi := sqltypes.NewString(prefix + "\xff")
		a.Lo, a.Hi = &lo, &hi
		a.LoInc, a.HiInc = true, false
		return a
	case *sqlparser.IsNullExpr:
		if v.Not {
			return a
		}
		c, ok := col(v.Left)
		if !ok {
			return a
		}
		a.Column = c
		a.Op = OpIsNull
		null := sqltypes.Null
		a.EqValue = &null
		return a
	default:
		return a
	}
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func classifyJoin(e sqlparser.Expr, l *exec.Layout) *JoinEdge {
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || b.Op != "=" {
		return nil
	}
	lc, ok1 := b.Left.(*sqlparser.ColumnRef)
	rc, ok2 := b.Right.(*sqlparser.ColumnRef)
	if !ok1 || !ok2 {
		return nil
	}
	li, lcol, err1 := resolveRef(l, lc)
	ri, rcol, err2 := resolveRef(l, rc)
	if err1 != nil || err2 != nil || li == ri {
		return nil
	}
	return &JoinEdge{LeftInstance: li, LeftColumn: lcol, RightInstance: ri, RightColumn: rcol, Expr: e}
}

// JoinNeighbors returns, per instance, the set of instances it shares a join
// edge with.
func (info *Info) JoinNeighbors() []map[int]bool {
	out := make([]map[int]bool, len(info.Layout.Instances))
	for i := range out {
		out[i] = map[int]bool{}
	}
	for _, e := range info.JoinEdges {
		out[e.LeftInstance][e.RightInstance] = true
		out[e.RightInstance][e.LeftInstance] = true
	}
	return out
}

// JoinColumns returns the columns of instance inst that participate in join
// edges with any instance in others.
func (info *Info) JoinColumns(inst int, others map[int]bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range info.JoinEdges {
		other, thisCol, _, ok := e.Other(inst)
		if !ok || !others[other] {
			continue
		}
		if !seen[thisCol] {
			seen[thisCol] = true
			out = append(out, thisCol)
		}
	}
	return out
}

// DNFLimit caps the number of disjuncts produced by DNF conversion; beyond
// it the predicate is treated as a single conjunctive factor.
const DNFLimit = 64

// DNF converts a boolean expression to disjunctive normal form, returning
// one atom list per disjunct. NOT is pushed down with De Morgan's laws;
// negated atoms are kept as opaque atoms. When the expansion would exceed
// DNFLimit the function falls back to a single factor containing every atom
// found in the expression (a safe over-approximation for candidate
// generation).
func DNF(e sqlparser.Expr) [][]sqlparser.Expr {
	out, ok := dnf(e, false)
	if ok && len(out) <= DNFLimit {
		return out
	}
	// Fallback: single factor of all atoms.
	var atoms []sqlparser.Expr
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		switch b := x.(type) {
		case *sqlparser.BinaryExpr:
			if b.Op == "AND" || b.Op == "OR" {
				return true
			}
			atoms = append(atoms, x)
			return false
		case *sqlparser.NotExpr:
			return true
		default:
			atoms = append(atoms, x)
			return false
		}
	})
	return [][]sqlparser.Expr{atoms}
}

func dnf(e sqlparser.Expr, negated bool) ([][]sqlparser.Expr, bool) {
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		op := v.Op
		if negated {
			switch op {
			case "AND":
				op = "OR"
			case "OR":
				op = "AND"
			}
		}
		switch op {
		case "OR":
			left, ok1 := dnf(v.Left, negated)
			right, ok2 := dnf(v.Right, negated)
			if !ok1 || !ok2 {
				return nil, false
			}
			return append(left, right...), len(left)+len(right) <= DNFLimit
		case "AND":
			left, ok1 := dnf(v.Left, negated)
			right, ok2 := dnf(v.Right, negated)
			if !ok1 || !ok2 {
				return nil, false
			}
			if len(left)*len(right) > DNFLimit {
				return nil, false
			}
			var out [][]sqlparser.Expr
			for _, l := range left {
				for _, r := range right {
					factor := make([]sqlparser.Expr, 0, len(l)+len(r))
					factor = append(factor, l...)
					factor = append(factor, r...)
					out = append(out, factor)
				}
			}
			return out, true
		}
	case *sqlparser.NotExpr:
		return dnf(v.Inner, !negated)
	}
	if negated {
		return [][]sqlparser.Expr{{&sqlparser.NotExpr{Inner: e}}}, true
	}
	return [][]sqlparser.Expr{{e}}, true
}
