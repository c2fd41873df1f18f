package sqlparser

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aim/internal/sqltypes"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT id, name FROM students WHERE score > 10").(*Select)
	if len(s.Exprs) != 2 || len(s.Tables) != 1 {
		t.Fatalf("shape: %+v", s)
	}
	if s.Tables[0].Name != "students" {
		t.Errorf("table = %q", s.Tables[0].Name)
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != ">" {
		t.Fatalf("where = %#v", s.Where)
	}
	if c := be.Left.(*ColumnRef); c.Column != "score" {
		t.Errorf("left = %v", c)
	}
	if l := be.Right.(*Literal); l.Val.Int() != 10 {
		t.Errorf("right = %v", l.Val)
	}
}

func TestParseSelectStarAndAliases(t *testing.T) {
	s := mustParse(t, "SELECT *, t.*, a + 1 AS b FROM t1 AS t").(*Select)
	if !s.Exprs[0].Star || s.Exprs[0].Table != "" {
		t.Error("bare star")
	}
	if !s.Exprs[1].Star || s.Exprs[1].Table != "t" {
		t.Error("qualified star")
	}
	if s.Exprs[2].Alias != "b" {
		t.Error("alias")
	}
	if s.Tables[0].EffectiveAlias() != "t" {
		t.Error("table alias")
	}
}

func TestParseImplicitAlias(t *testing.T) {
	s := mustParse(t, "SELECT x FROM orders o WHERE o.id = 1").(*Select)
	if s.Tables[0].Alias != "o" {
		t.Errorf("implicit alias = %q", s.Tables[0].Alias)
	}
}

func TestParseJoins(t *testing.T) {
	s := mustParse(t, `SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.id = t2.t1_id
		INNER JOIN t3 ON t2.id = t3.t2_id WHERE t1.x > 5`).(*Select)
	if len(s.Tables) != 3 {
		t.Fatalf("tables = %d", len(s.Tables))
	}
	// ON conditions and WHERE fold into one conjunction: expect 3 conjuncts.
	conjuncts := 0
	var count func(e Expr)
	count = func(e Expr) {
		if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
			count(b.Left)
			count(b.Right)
			return
		}
		conjuncts++
	}
	count(s.Where)
	if conjuncts != 3 {
		t.Errorf("conjuncts = %d, want 3", conjuncts)
	}
}

func TestParseCommaJoin(t *testing.T) {
	s := mustParse(t, "SELECT t1.col1 FROM t1, t2, t3 WHERE t1.col2 = t3.col2 AND t2.col4 = t3.col7").(*Select)
	if len(s.Tables) != 3 {
		t.Fatalf("tables = %d", len(s.Tables))
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	s := mustParse(t, "SELECT city, COUNT(*) FROM users WHERE age > 18 GROUP BY city ORDER BY city DESC, age ASC LIMIT 10 OFFSET 5").(*Select)
	if len(s.GroupBy) != 1 {
		t.Error("group by")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Error("order by")
	}
	if s.Limit != 10 || s.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", s.Limit, s.Offset)
	}
	fn := s.Exprs[1].Expr.(*FuncExpr)
	if fn.Name != "COUNT" || !fn.Star || !fn.IsAggregate() {
		t.Errorf("func = %+v", fn)
	}
}

func TestParsePredicates(t *testing.T) {
	s := mustParse(t, `SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1 AND 5
		AND c LIKE 'abc%' AND d IS NOT NULL AND e IS NULL AND f NOT IN (9)
		AND g NOT BETWEEN 1 AND 2 AND NOT (h = 1 OR i = 2)`).(*Select)
	sql := s.SQL()
	for _, want := range []string{"IN (1, 2, 3)", "BETWEEN 1 AND 5", "LIKE 'abc%'",
		"IS NOT NULL", "IS NULL", "NOT IN (9)", "NOT BETWEEN 1 AND 2", "NOT ("} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a + 2 * 3 = 7").(*Select)
	eq := s.Where.(*BinaryExpr)
	add := eq.Left.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("expected + at top, got %s", add.Op)
	}
	mul := add.Right.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("expected * nested, got %s", mul.Op)
	}
}

func TestParseOrAndPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3").(*Select)
	or := s.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %s, want OR", or.Op)
	}
	and := or.Left.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("left = %s, want AND", and.Op)
	}
}

func TestParseParenthesizedOr(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3").(*Select)
	and := s.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("top = %s", and.Op)
	}
	if or := and.Left.(*BinaryExpr); or.Op != "OR" {
		t.Fatalf("left = %s", or.Op)
	}
}

func TestParseLiterals(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = -5 AND b = 2.5 AND c = 'it''s' AND d = NULL AND e = TRUE AND f = 1e3").(*Select)
	sql := s.SQL()
	for _, want := range []string{"-5", "2.5", "'it''s'", "NULL", "TRUE", "1000"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
}

func TestParsePlaceholders(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = ? AND b > ?").(*Select)
	n := 0
	WalkExpr(s.Where, func(e Expr) bool {
		if _, ok := e.(*Placeholder); ok {
			n++
		}
		return true
	})
	if n != 2 {
		t.Errorf("placeholders = %d", n)
	}
}

func TestParseInsert(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	ins2 := mustParse(t, "INSERT INTO t VALUES (1, 2)").(*Insert)
	if len(ins2.Columns) != 0 || len(ins2.Rows) != 1 {
		t.Fatalf("%+v", ins2)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE t SET a = 1, b = b + 1 WHERE id = 5").(*Update)
	if up.Table != "t" || len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	del := mustParse(t, "DELETE FROM t WHERE id = 5").(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("%+v", del)
	}
	del2 := mustParse(t, "DELETE FROM t").(*Delete)
	if del2.Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestParseCreateTable(t *testing.T) {
	ct := mustParse(t, "CREATE TABLE users (id INT, name VARCHAR(32), score FLOAT, ok BOOL, PRIMARY KEY (id))").(*CreateTable)
	if ct.Table != "users" || len(ct.Columns) != 4 {
		t.Fatalf("%+v", ct)
	}
	if ct.Columns[1].Type != sqltypes.KindString {
		t.Error("varchar type")
	}
	if len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "id" {
		t.Errorf("pk = %v", ct.PrimaryKey)
	}
	if _, err := Parse("CREATE TABLE t (a INT)"); err == nil {
		t.Error("missing PK accepted")
	}
}

func TestParseCreateDropIndex(t *testing.T) {
	ci := mustParse(t, "CREATE INDEX ix ON t (a, b)").(*CreateIndex)
	if ci.Name != "ix" || ci.Table != "t" || len(ci.Columns) != 2 {
		t.Fatalf("%+v", ci)
	}
	di := mustParse(t, "DROP INDEX ix ON t").(*DropIndex)
	if di.Name != "ix" {
		t.Fatalf("%+v", di)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT a FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT a FROM t LIMIT x",
		"INSERT INTO t",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a FROM t WHERE a = 1e",
		"SELECT a FROM t WHERE a @ 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSQLRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT id, name FROM students WHERE score > 10",
		"SELECT * FROM t WHERE a = 1 AND (b = 2 OR c = 3) ORDER BY d DESC LIMIT 3",
		"SELECT city, COUNT(*) FROM users GROUP BY city",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"UPDATE t SET a = 2 WHERE id = 1",
		"DELETE FROM t WHERE id = 1",
		"CREATE INDEX ix ON t (a, b)",
	}
	for _, src := range srcs {
		first := mustParse(t, src)
		second := mustParse(t, first.SQL())
		if first.SQL() != second.SQL() {
			t.Errorf("round trip diverged:\n  1: %s\n  2: %s", first.SQL(), second.SQL())
		}
	}
}

func TestNormalize(t *testing.T) {
	norm, params := Normalize(mustParse(t, "SELECT id, name FROM students WHERE score > 17"))
	if norm != "SELECT id, name FROM students WHERE score > ?" {
		t.Errorf("norm = %q", norm)
	}
	if len(params) != 1 || params[0].Int() != 17 {
		t.Errorf("params = %v", params)
	}
}

func TestNormalizeGroupsSimilarQueries(t *testing.T) {
	a, _ := Normalize(mustParse(t, "SELECT a FROM t WHERE x = 5 AND y IN (1,2,3)"))
	b, _ := Normalize(mustParse(t, "SELECT a FROM t WHERE x = 9 AND y IN (4,5,6,7,8)"))
	if a != b {
		t.Errorf("normalized forms differ:\n  %s\n  %s", a, b)
	}
	c, _ := Normalize(mustParse(t, "SELECT a FROM t WHERE x = 5 AND z IN (1)"))
	if a == c {
		t.Error("different structure should not normalize equal")
	}
}

// TestInListKeepsColumnMembers pins that an IN list collapses to one `?`
// only when every member is a literal: the template of a list with a column
// in it still names that column, which the engine's stamp of the template
// reads.
func TestInListKeepsColumnMembers(t *testing.T) {
	for sql, want := range map[string]string{
		"SELECT a FROM t WHERE x IN (1, 2, 3)":     "SELECT a FROM t WHERE x IN (?)",
		"SELECT a FROM t WHERE x IN (1, y, 2 + z)": "SELECT a FROM t WHERE x IN (?, y, ? + z)",
	} {
		if got, _ := Normalize(mustParse(t, sql)); got != want {
			t.Errorf("%s: template %q, want %q", sql, got, want)
		}
	}
}

func TestNormalizeDML(t *testing.T) {
	a, _ := Normalize(mustParse(t, "INSERT INTO t (x, y) VALUES (1, 'a'), (2, 'b')"))
	b, _ := Normalize(mustParse(t, "INSERT INTO t (x, y) VALUES (3, 'c')"))
	if a != b {
		t.Errorf("multi-row insert should normalize to single row:\n  %s\n  %s", a, b)
	}
	u, params := Normalize(mustParse(t, "UPDATE t SET a = 5 WHERE id = 3"))
	if u != "UPDATE t SET a = ? WHERE id = ?" || len(params) != 2 {
		t.Errorf("update norm = %q params=%v", u, params)
	}
	d, _ := Normalize(mustParse(t, "DELETE FROM t WHERE id = 3"))
	if d != "DELETE FROM t WHERE id = ?" {
		t.Errorf("delete norm = %q", d)
	}
}

func TestColumnsIn(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE t.x = 1 AND y + z > 2").(*Select)
	cols := ColumnsIn(s.Where)
	if len(cols) != 3 {
		t.Fatalf("cols = %v", cols)
	}
	if cols[0].Table != "t" || cols[0].Column != "x" {
		t.Errorf("first = %+v", cols[0])
	}
}

func TestParseStraightJoin(t *testing.T) {
	s := mustParse(t, "SELECT STRAIGHT_JOIN a FROM t1, t2 WHERE t1.x = t2.y").(*Select)
	if !s.StraightJoin {
		t.Error("straight join flag not set")
	}
}

func TestParseWhitespaceAndCase(t *testing.T) {
	srcs := []string{
		"select ID , Name from Students where SCORE > 10",
		"SELECT\n\tid\nFROM\tstudents\r\nWHERE score>10",
		"SELECT id FROM students WHERE score > 10 ;",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseDeeplyNestedExpressions(t *testing.T) {
	where := "a = 1"
	for i := 0; i < 40; i++ {
		where = "(" + where + " OR b = 2)"
	}
	if _, err := Parse("SELECT a FROM t WHERE " + where); err != nil {
		t.Fatalf("deep nesting: %v", err)
	}
}

func TestParseNegativeAndExponentLiterals(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE x = -2.5e-3 AND y = -7").(*Select)
	conjs := s.Where.(*BinaryExpr)
	_ = conjs
	if !strings.Contains(s.SQL(), "-0.0025") {
		t.Errorf("SQL = %q", s.SQL())
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	srcs := []string{
		"SELECT a FROM t WHERE x = 5 AND y IN (1,2,3)",
		"SELECT a, COUNT(*) FROM t WHERE b BETWEEN 1 AND 2 GROUP BY a ORDER BY a LIMIT 3",
		"UPDATE t SET a = 1 WHERE b = 2",
	}
	for _, src := range srcs {
		n1, _ := Normalize(mustParse(t, src))
		// Normalizing the normalized text must be a fixpoint.
		n2, _ := Normalize(mustParse(t, n1))
		if n1 != n2 {
			t.Errorf("not idempotent:\n  %s\n  %s", n1, n2)
		}
	}
}

// benchTemplates are the statement shapes bench/stream.go sends on the
// serving workloads; the first five are point_read's and scan_read's.
var benchTemplates = []string{
	"SELECT score, day FROM events WHERE id = 123456",
	"SELECT id, score FROM events WHERE user_id = 4711",
	"UPDATE events SET note = 'n417' WHERE id = 98765",
	"SELECT kind, COUNT(*), SUM(score) FROM events WHERE day BETWEEN 17 AND 18 GROUP BY kind",
	"SELECT e.id, u.tier FROM events e JOIN users u ON u.id = e.user_id WHERE e.day = 42 LIMIT 200",
	"SELECT id, score FROM events WHERE day = 42",
	"INSERT INTO events VALUES (200001, 4711, 3, 42, 977, 'n12')",
	"UPDATE events SET score = 512 WHERE id = 98765",
	"DELETE FROM events WHERE id = 98765",
	"SELECT id, day FROM events WHERE kind = 3 AND score > 985",
}

var normalizeSink string

// BenchmarkNormalize times Normalize alone (the statement is parsed once,
// outside the loop): the serving path pays it once per executed statement.
func BenchmarkNormalize(b *testing.B) {
	for i, src := range benchTemplates[:5] {
		stmt, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("template%d", i), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				normalizeSink, _ = Normalize(stmt)
			}
		})
	}
}

// TestTemplateOrdinalsAndBypass pins what the planner's memo relies on: a
// template's placeholders index Params, the template's text parsed again
// numbers them the same way, and every statement whose plan or ordinals
// depend on a literal says why it bypasses.
func TestTemplateOrdinalsAndBypass(t *testing.T) {
	ordinals := func(stmt Statement) []int {
		var out []int
		visit := func(e Expr) {
			WalkExpr(e, func(x Expr) bool {
				if p, ok := x.(*Placeholder); ok {
					out = append(out, p.Ordinal)
				}
				return true
			})
		}
		switch s := stmt.(type) {
		case *Select:
			visit(s.Where)
		case *Update:
			for _, a := range s.Set {
				visit(a.Value)
			}
			visit(s.Where)
		case *Delete:
			visit(s.Where)
		case *Insert:
			for _, e := range s.Rows[0] {
				visit(e)
			}
		}
		return out
	}
	for sql, bypass := range map[string]string{
		"SELECT a FROM t WHERE x = 5 AND 7 < y AND z BETWEEN 1 AND 'b' ORDER BY a LIMIT 3": "",
		"SELECT a.x FROM t a JOIN u b ON b.k = a.k WHERE a.x = 1.5 AND b.y <=> NULL":       "",
		"UPDATE t SET a = 5, b = 'x' WHERE id = 3 AND c > 2":                               "",
		"DELETE FROM t WHERE id = 3":                                                       "",
		"INSERT INTO t (x, y) VALUES (1, 'a')":                                             "",
		"SELECT a FROM t WHERE x = 5 AND y IN (1, 2, 3)":                                   BypassInList,
		"SELECT a FROM t WHERE name LIKE 'ab%' AND x = 5":                                  BypassLike,
		"INSERT INTO t (x, y) VALUES (1, 'a'), (2, 'b')":                                   BypassMultiRow,
		"SELECT a FROM t WHERE x = ? AND y = 2":                                            BypassPlaceholder,
		"SELECT a + 1 FROM t WHERE x = 5":                                                  BypassProjection,
		"SELECT a FROM t WHERE x = 5 ORDER BY a + 1":                                       BypassProjection,
		"SELECT a + 1 FROM t WHERE y IN (1, 2) AND name LIKE 'a%'":                         BypassProjection,
		"SELECT a FROM t WHERE name NOT LIKE 'a%' AND y NOT IN (1, 2)":                     BypassLike,
	} {
		tmpl := NewTemplate(mustParse(t, sql))
		if tmpl.Bypass != bypass {
			t.Errorf("%s: bypass %q, want %q", sql, tmpl.Bypass, bypass)
		}
		if text, params := Normalize(mustParse(t, sql)); text != tmpl.Text || len(params) != len(tmpl.Params) {
			t.Errorf("%s: Normalize and NewTemplate disagree", sql)
		}
		again := mustParse(t, tmpl.Text)
		if bypass != "" {
			continue
		}
		want := ordinals(again)
		for i, o := range want {
			if o != i {
				t.Fatalf("%s: parsed template numbers its placeholders %v", tmpl.Text, want)
			}
		}
		if got := ordinals(tmpl.Stmt); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(tmpl.Params) {
			t.Errorf("%s: template ordinals %v over %d params, parsed again %v", sql, got, len(tmpl.Params), want)
		}
	}
}

// randomExpr draws an expression tree with any node in any operand position
// (the parser builds every such tree from parentheses). AND / OR chains are
// drawn left-deep, the one association SQL() renders without parentheses.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return &ColumnRef{Table: "t", Column: "b"}
		case 1:
			return &Literal{Val: sqltypes.NewInt(int64(r.Intn(9) - 3))}
		case 2:
			return &Literal{Val: sqltypes.NewString("it's")}
		case 3:
			return &Literal{Val: sqltypes.Null}
		}
		return &ColumnRef{Column: "a"}
	}
	sub := func() Expr { return randomExpr(r, depth-1) }
	switch r.Intn(9) {
	case 0:
		op := []string{"AND", "OR"}[r.Intn(2)]
		right := sub()
		for b, ok := right.(*BinaryExpr); ok && b.Op == op; b, ok = right.(*BinaryExpr) {
			right = b.Right
		}
		return &BinaryExpr{Op: op, Left: sub(), Right: right}
	case 1:
		return &NotExpr{Inner: sub()}
	case 2:
		return &InExpr{Left: sub(), List: []Expr{sub(), sub()}, Not: r.Intn(2) == 0}
	case 3:
		return &BetweenExpr{Left: sub(), Low: sub(), High: sub(), Not: r.Intn(2) == 0}
	case 4:
		return &LikeExpr{Left: sub(), Pattern: sub(), Not: r.Intn(2) == 0}
	case 5:
		return &IsNullExpr{Left: sub(), Not: r.Intn(2) == 0}
	case 6:
		return &FuncExpr{Name: "ABS", Args: []Expr{sub()}}
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">=", "<=>", "+", "-", "*", "/", "%"}
	return &BinaryExpr{Op: ops[r.Intn(len(ops))], Left: sub(), Right: sub()}
}

// TestSQLParsesBackToTheTree pins that SQL() is faithful: the text of a
// statement parses back to the statement, so two statements that differ — in
// where their parentheses sit, in a join hint — never share a text. The
// workload monitor parses a template's text again, and the planner's memo is
// keyed on it.
func TestSQLParsesBackToTheTree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		sel := &Select{
			Distinct: r.Intn(2) == 0, StraightJoin: r.Intn(2) == 0, Limit: -1,
			Exprs:  []*SelectExpr{{Expr: randomExpr(r, 2), Alias: "x"}},
			Tables: []*TableRef{{Name: "t"}, {Name: "u", Alias: "v"}},
			Where:  randomExpr(r, 4),
		}
		text := sel.SQL()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if !reflect.DeepEqual(again, Statement(sel)) {
			t.Fatalf("%s parses back as %s", text, again.SQL())
		}
	}
	// The pairs that shared a template before SQL() was faithful.
	for _, pair := range [][2]string{
		{"SELECT a FROM t WHERE id = 10 - (5 - 2)", "SELECT a FROM t WHERE id = 10 - 5 - 2"},
		{"SELECT a FROM t WHERE x = (y + 1) * 2", "SELECT a FROM t WHERE x = y + 1 * 2"},
		{"UPDATE t SET a = 2 * (a + 1) WHERE id = 8 / (4 / 2)", "UPDATE t SET a = 2 * a + 1 WHERE id = 8 / 4 / 2"},
		{"SELECT STRAIGHT_JOIN a.x FROM a, b WHERE a.k = b.k AND a.x = 1", "SELECT a.x FROM a, b WHERE a.k = b.k AND a.x = 1"},
		{"SELECT a FROM t WHERE (x = 1) = TRUE", "SELECT a FROM t WHERE x = (1 = TRUE)"},
	} {
		one, two := NewTemplate(mustParse(t, pair[0])), NewTemplate(mustParse(t, pair[1]))
		if one.Text == two.Text {
			t.Errorf("%s and %s share the template %s", pair[0], pair[1], one.Text)
		}
		for _, tmpl := range []Template{one, two} {
			if again := mustParse(t, tmpl.Text).SQL(); again != tmpl.Text {
				t.Errorf("template %s parses back as %s", tmpl.Text, again)
			}
		}
	}
}
