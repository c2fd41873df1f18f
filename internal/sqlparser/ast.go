package sqlparser

import (
	"fmt"
	"strings"

	"aim/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface {
	// SQL renders the statement back to dialect text.
	SQL() string
	stmt()
}

// Expr is any scalar or boolean expression.
type Expr interface {
	SQL() string
	expr()
}

// ColumnRef references table.column (Table may be empty before resolution).
type ColumnRef struct {
	Table  string // table name or alias as written; resolved by the binder
	Column string
}

func (c *ColumnRef) expr() {}

// SQL renders the reference.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Literal is a constant value.
type Literal struct {
	Val sqltypes.Value
}

func (l *Literal) expr()       {}
func (l *Literal) SQL() string { return l.Val.String() }

// Placeholder is a `?` parameter marker.
type Placeholder struct {
	Ordinal int // zero-based position among the statement's placeholders
}

func (p *Placeholder) expr()       {}
func (p *Placeholder) SQL() string { return "?" }

// BinaryExpr applies Op to Left and Right. Comparison ops: = != < <= > >=
// <=>; arithmetic: + - * / %; logical: AND OR.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

func (b *BinaryExpr) expr() {}

// SQL renders so that the text parses back to the tree: an operand the grammar
// wants at a higher level than it has is parenthesized (operand), so
// `10 - (5 - 2)` and `10 - 5 - 2` stay apart. AND / OR keep their older, looser
// rule — the other logical operator is parenthesized, a nested chain of the
// same one is not — which distinguishes trees up to the association of a chain;
// everything that reads a WHERE clause flattens chains first.
func (b *BinaryExpr) SQL() string {
	p := level(b)
	if p > levelAnd {
		return operand(b.Left, max(p, levelAdditive)) + " " + b.Op + " " + operand(b.Right, max(p+1, levelAdditive))
	}
	l, r := b.Left.SQL(), b.Right.SQL()
	if inner, ok := b.Left.(*BinaryExpr); ok && inner.Op != b.Op && level(inner) <= levelAnd {
		l = "(" + l + ")"
	}
	if inner, ok := b.Right.(*BinaryExpr); ok && inner.Op != b.Op && level(inner) <= levelAnd {
		r = "(" + r + ")"
	}
	return l + " " + b.Op + " " + r
}

// Grammar levels, loosest first (see parseExpr).
const (
	levelOr = iota + 1
	levelAnd
	levelNot
	levelPredicate
	levelAdditive
	levelMultiplicative
	levelPrimary
)

// level is the grammar level e parses at.
func level(e Expr) int {
	switch v := e.(type) {
	case *BinaryExpr:
		switch v.Op {
		case "OR":
			return levelOr
		case "AND":
			return levelAnd
		case "+", "-":
			return levelAdditive
		case "*", "/", "%":
			return levelMultiplicative
		}
		return levelPredicate
	case *NotExpr:
		return levelNot
	case *InExpr, *BetweenExpr, *LikeExpr, *IsNullExpr:
		return levelPredicate
	}
	return levelPrimary
}

// operand renders e where the grammar parses level min or tighter.
func operand(e Expr, min int) string {
	if level(e) < min {
		return "(" + e.SQL() + ")"
	}
	return e.SQL()
}

// NotExpr negates Inner.
type NotExpr struct{ Inner Expr }

func (n *NotExpr) expr()       {}
func (n *NotExpr) SQL() string { return "NOT (" + n.Inner.SQL() + ")" }

// InExpr tests membership of Left in a literal list.
type InExpr struct {
	Left Expr
	List []Expr
	Not  bool
}

func (i *InExpr) expr() {}

// SQL renders the IN list.
func (i *InExpr) SQL() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.SQL()
	}
	op := "IN"
	if i.Not {
		op = "NOT IN"
	}
	return operand(i.Left, levelAdditive) + " " + op + " (" + strings.Join(parts, ", ") + ")"
}

// BetweenExpr tests Low <= Left <= High.
type BetweenExpr struct {
	Left, Low, High Expr
	Not             bool
}

func (b *BetweenExpr) expr() {}

// SQL renders the BETWEEN.
func (b *BetweenExpr) SQL() string {
	op := "BETWEEN"
	if b.Not {
		op = "NOT BETWEEN"
	}
	return operand(b.Left, levelAdditive) + " " + op + " " + operand(b.Low, levelAdditive) + " AND " + operand(b.High, levelAdditive)
}

// LikeExpr matches Left against a pattern with % and _ wildcards.
type LikeExpr struct {
	Left    Expr
	Pattern Expr
	Not     bool
}

func (l *LikeExpr) expr() {}

// SQL renders the LIKE.
func (l *LikeExpr) SQL() string {
	op := "LIKE"
	if l.Not {
		op = "NOT LIKE"
	}
	return operand(l.Left, levelAdditive) + " " + op + " " + operand(l.Pattern, levelAdditive)
}

// IsNullExpr tests for NULL.
type IsNullExpr struct {
	Left Expr
	Not  bool
}

func (i *IsNullExpr) expr() {}

// SQL renders the IS [NOT] NULL.
func (i *IsNullExpr) SQL() string {
	if i.Not {
		return operand(i.Left, levelAdditive) + " IS NOT NULL"
	}
	return operand(i.Left, levelAdditive) + " IS NULL"
}

// FuncExpr is an aggregate or scalar function call. Star marks COUNT(*).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
	Star bool
}

func (f *FuncExpr) expr() {}

// SQL renders the call.
func (f *FuncExpr) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.SQL()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// IsAggregate reports whether Name is one of the supported aggregates.
func (f *FuncExpr) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// SelectExpr is one item of the projection list.
type SelectExpr struct {
	Expr  Expr   // nil when Star
	Alias string // optional
	Star  bool   // SELECT * or t.*
	Table string // for t.*
}

// SQL renders the projection item.
func (s *SelectExpr) SQL() string {
	if s.Star {
		if s.Table != "" {
			return s.Table + ".*"
		}
		return "*"
	}
	out := s.Expr.SQL()
	if s.Alias != "" {
		out += " AS " + s.Alias
	}
	return out
}

// TableRef is one table in the FROM clause with an optional alias.
type TableRef struct {
	Name  string
	Alias string // empty when not aliased; effective alias = Alias or Name
}

// EffectiveAlias returns the name the table is referenced by.
func (t *TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SQL renders the reference.
func (t *TableRef) SQL() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SQL renders the order item.
func (o *OrderItem) SQL() string {
	if o.Desc {
		return o.Expr.SQL() + " DESC"
	}
	return o.Expr.SQL()
}

// Select is a SELECT statement. Joins written with JOIN ... ON are folded
// into Tables plus Where conjuncts; StraightJoin records a fixed join order.
type Select struct {
	Distinct     bool
	Exprs        []*SelectExpr
	Tables       []*TableRef
	Where        Expr // nil when absent
	GroupBy      []Expr
	OrderBy      []*OrderItem
	Limit        int64 // -1 when absent
	Offset       int64 // 0 when absent
	StraightJoin bool
}

func (s *Select) stmt() {}

// SQL renders the statement.
func (s *Select) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.StraightJoin {
		b.WriteString("STRAIGHT_JOIN ")
	}
	for i, e := range s.Exprs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.SQL())
	}
	b.WriteString(" FROM ")
	for i, t := range s.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.SQL())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.SQL())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
		if s.Offset > 0 {
			fmt.Fprintf(&b, " OFFSET %d", s.Offset)
		}
	}
	return b.String()
}

// Insert is an INSERT statement.
type Insert struct {
	Table   string
	Columns []string // empty = all columns in table order
	Rows    [][]Expr
}

func (i *Insert) stmt() {}

// SQL renders the statement.
func (i *Insert) SQL() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(i.Table)
	if len(i.Columns) > 0 {
		b.WriteString(" (" + strings.Join(i.Columns, ", ") + ")")
	}
	b.WriteString(" VALUES ")
	for ri, row := range i.Rows {
		if ri > 0 {
			b.WriteString(", ")
		}
		parts := make([]string, len(row))
		for ci, e := range row {
			parts[ci] = e.SQL()
		}
		b.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	return b.String()
}

// Assignment is one SET item of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is an UPDATE statement.
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (u *Update) stmt() {}

// SQL renders the statement.
func (u *Update) SQL() string {
	var b strings.Builder
	b.WriteString("UPDATE " + u.Table + " SET ")
	for i, a := range u.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column + " = " + a.Value.SQL())
	}
	if u.Where != nil {
		b.WriteString(" WHERE " + u.Where.SQL())
	}
	return b.String()
}

// Delete is a DELETE statement.
type Delete struct {
	Table string
	Where Expr
}

func (d *Delete) stmt() {}

// SQL renders the statement.
func (d *Delete) SQL() string {
	out := "DELETE FROM " + d.Table
	if d.Where != nil {
		out += " WHERE " + d.Where.SQL()
	}
	return out
}

// ColumnDef is one column of CREATE TABLE.
type ColumnDef struct {
	Name string
	Type sqltypes.Kind
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Table      string
	Columns    []ColumnDef
	PrimaryKey []string
}

func (c *CreateTable) stmt() {}

// SQL renders the statement.
func (c *CreateTable) SQL() string {
	parts := make([]string, 0, len(c.Columns)+1)
	for _, col := range c.Columns {
		parts = append(parts, col.Name+" "+typeName(col.Type))
	}
	parts = append(parts, "PRIMARY KEY ("+strings.Join(c.PrimaryKey, ", ")+")")
	return "CREATE TABLE " + c.Table + " (" + strings.Join(parts, ", ") + ")"
}

func typeName(k sqltypes.Kind) string {
	switch k {
	case sqltypes.KindInt:
		return "INT"
	case sqltypes.KindFloat:
		return "FLOAT"
	case sqltypes.KindString:
		return "STRING"
	case sqltypes.KindBool:
		return "BOOL"
	default:
		return "STRING"
	}
}

// CreateIndex is a CREATE INDEX statement.
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
}

func (c *CreateIndex) stmt() {}

// SQL renders the statement.
func (c *CreateIndex) SQL() string {
	return "CREATE INDEX " + c.Name + " ON " + c.Table + " (" + strings.Join(c.Columns, ", ") + ")"
}

// DropIndex is a DROP INDEX statement.
type DropIndex struct {
	Name string
}

func (d *DropIndex) stmt() {}

// SQL renders the statement.
func (d *DropIndex) SQL() string { return "DROP INDEX " + d.Name }

// WalkExpr calls fn for e and every sub-expression, depth-first. A false
// return stops descent into that subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch v := e.(type) {
	case *BinaryExpr:
		WalkExpr(v.Left, fn)
		WalkExpr(v.Right, fn)
	case *NotExpr:
		WalkExpr(v.Inner, fn)
	case *InExpr:
		WalkExpr(v.Left, fn)
		for _, x := range v.List {
			WalkExpr(x, fn)
		}
	case *BetweenExpr:
		WalkExpr(v.Left, fn)
		WalkExpr(v.Low, fn)
		WalkExpr(v.High, fn)
	case *LikeExpr:
		WalkExpr(v.Left, fn)
		WalkExpr(v.Pattern, fn)
	case *IsNullExpr:
		WalkExpr(v.Left, fn)
	case *FuncExpr:
		for _, x := range v.Args {
			WalkExpr(x, fn)
		}
	}
}

// ColumnsIn returns every column reference in e, in syntax order.
func ColumnsIn(e Expr) []*ColumnRef {
	var out []*ColumnRef
	WalkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}
