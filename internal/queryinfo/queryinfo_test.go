package queryinfo

import (
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

func testSchema(t testing.TB) *catalog.Schema {
	t.Helper()
	s := catalog.NewSchema()
	add := func(name string, cols []string, pk string) {
		cc := make([]catalog.Column, len(cols))
		for i, c := range cols {
			kind := sqltypes.KindInt
			if c == "name" || c == "status" || c == "city" {
				kind = sqltypes.KindString
			}
			cc[i] = catalog.Column{Name: c, Type: kind}
		}
		tbl, err := catalog.NewTable(name, cc, []string{pk})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	add("t1", []string{"id", "col1", "col2", "col3", "col4", "col5", "name"}, "id")
	add("t2", []string{"id", "col2", "col4", "t1_id"}, "id")
	add("t3", []string{"id", "col2", "col7"}, "id")
	return s
}

func analyze(t *testing.T, sql string) *Info {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(stmt.(*sqlparser.Select), testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestAnalyzeFilterAtoms(t *testing.T) {
	info := analyze(t, `SELECT col1 FROM t1 WHERE col1 = 5 AND col2 > 3 AND col3 IN (1,2)
		AND name LIKE 'ab%' AND col4 BETWEEN 1 AND 9 AND col5 IS NULL`)
	atoms := info.FilterAtoms[0]
	if len(atoms) != 6 {
		t.Fatalf("atoms = %d", len(atoms))
	}
	byCol := map[string]*Atom{}
	for _, a := range atoms {
		byCol[a.Column] = a
	}
	if byCol["col1"].Op != OpEq || byCol["col1"].EqValue.Int() != 5 {
		t.Error("col1 eq atom")
	}
	if byCol["col2"].Op != OpRange || byCol["col2"].Lo.Int() != 3 || byCol["col2"].LoInc {
		t.Error("col2 range atom")
	}
	if byCol["col3"].Op != OpIn || len(byCol["col3"].InValues) != 2 {
		t.Error("col3 in atom")
	}
	if byCol["name"].Op != OpLikePrefix || byCol["name"].LikePrefix != "ab" {
		t.Error("name like atom")
	}
	if byCol["col4"].Op != OpRange || !byCol["col4"].LoInc || !byCol["col4"].HiInc {
		t.Error("col4 between atom")
	}
	if byCol["col5"].Op != OpIsNull {
		t.Error("col5 is-null atom")
	}
	// IPP classification.
	for col, wantIPP := range map[string]bool{"col1": true, "col3": true, "col5": true, "col2": false, "col4": false, "name": false} {
		if byCol[col].Op.IsIPP() != wantIPP {
			t.Errorf("%s IPP = %v, want %v", col, byCol[col].Op.IsIPP(), wantIPP)
		}
	}
}

func TestAnalyzeFlippedComparison(t *testing.T) {
	info := analyze(t, "SELECT col1 FROM t1 WHERE 5 < col2")
	a := info.FilterAtoms[0][0]
	if a.Op != OpRange || a.Column != "col2" || a.Lo.Int() != 5 || a.LoInc {
		t.Errorf("flipped atom = %+v", a)
	}
}

func TestAnalyzePlaceholderAtoms(t *testing.T) {
	info := analyze(t, "SELECT col1 FROM t1 WHERE col1 = ? AND col2 > ?")
	atoms := info.FilterAtoms[0]
	if atoms[0].Op != OpEq || atoms[0].EqValue != nil {
		t.Error("placeholder eq should have shape but no value")
	}
	if atoms[1].Op != OpRange || atoms[1].Lo != nil {
		t.Error("placeholder range")
	}
}

func TestAnalyzeJoinGraph(t *testing.T) {
	// The Q2 example from the paper (Fig. 2).
	info := analyze(t, `SELECT t1.col1, t2.col2, t3.col2 FROM t1, t2, t3
		WHERE t1.col2 = t3.col2 AND t2.col4 = t3.col7`)
	if len(info.JoinEdges) != 2 {
		t.Fatalf("edges = %d", len(info.JoinEdges))
	}
	nb := info.JoinNeighbors()
	if !nb[0][2] || !nb[1][2] || !nb[2][0] || !nb[2][1] {
		t.Errorf("neighbors = %v", nb)
	}
	if nb[0][1] {
		t.Error("t1 and t2 are not joined")
	}
	cols := info.JoinColumns(2, map[int]bool{0: true, 1: true})
	if len(cols) != 2 {
		t.Errorf("t3 join columns = %v", cols)
	}
	cols = info.JoinColumns(2, map[int]bool{0: true})
	if len(cols) != 1 || cols[0] != "col2" {
		t.Errorf("t3 join columns wrt t1 = %v", cols)
	}
}

func TestAnalyzeGroupOrderReferenced(t *testing.T) {
	info := analyze(t, `SELECT col3, COUNT(*) FROM t1 WHERE col2 = 5
		GROUP BY col3 ORDER BY col3 DESC LIMIT 5`)
	if len(info.GroupBy) != 1 || info.GroupBy[0].Column != "col3" {
		t.Errorf("group by = %v", info.GroupBy)
	}
	if len(info.OrderBy) != 1 || !info.OrderBy[0].Desc {
		t.Errorf("order by = %v", info.OrderBy)
	}
	want := []string{"col2", "col3"}
	if len(info.Referenced[0]) != 2 || info.Referenced[0][0] != want[0] || info.Referenced[0][1] != want[1] {
		t.Errorf("referenced = %v", info.Referenced[0])
	}
	if len(info.Aggregates) != 1 {
		t.Errorf("aggregates = %v", info.Aggregates)
	}
}

func TestAnalyzeStarReferencesAllColumns(t *testing.T) {
	info := analyze(t, "SELECT * FROM t2 WHERE col2 = 1")
	if len(info.Referenced[0]) != 4 {
		t.Errorf("star referenced = %v", info.Referenced[0])
	}
	if !info.SelectsStar {
		t.Error("star flag")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	schema := testSchema(t)
	bad := []string{
		"SELECT x FROM nosuch",
		"SELECT nope FROM t1",
		"SELECT t9.col1 FROM t1",
	}
	for _, sql := range bad {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(stmt.(*sqlparser.Select), schema); err == nil {
			t.Errorf("Analyze(%q) should fail", sql)
		}
	}
}

func TestConjunctClassification(t *testing.T) {
	info := analyze(t, `SELECT t1.col1 FROM t1, t2 WHERE t1.col1 = 5
		AND t1.id = t2.t1_id AND t1.col2 + t2.col2 > 3`)
	if len(info.Conjuncts) != 3 {
		t.Fatalf("conjuncts = %d", len(info.Conjuncts))
	}
	if info.Conjuncts[0].Atom == nil || info.Conjuncts[0].Join != nil {
		t.Error("first should be atom")
	}
	if info.Conjuncts[1].Join == nil {
		t.Error("second should be join edge")
	}
	if info.Conjuncts[2].Atom != nil || info.Conjuncts[2].Join != nil {
		t.Error("third is neither atom nor join")
	}
	if len(info.Conjuncts[2].Instances) != 2 {
		t.Error("third references both instances")
	}
}

func TestSplitAndOr(t *testing.T) {
	stmt, _ := sqlparser.Parse("SELECT col1 FROM t1 WHERE col1 = 1 AND (col2 = 2 OR col3 = 3) AND col4 = 4")
	where := stmt.(*sqlparser.Select).Where
	ands := SplitAnd(where)
	if len(ands) != 3 {
		t.Fatalf("ands = %d", len(ands))
	}
	ors := SplitOr(ands[1])
	if len(ors) != 2 {
		t.Fatalf("ors = %d", len(ors))
	}
}

func TestDNFPaperExample(t *testing.T) {
	// E2 from §IV-B1: (col1=? AND col2=? AND col3>?) OR (col2=? AND col4<?)
	stmt, _ := sqlparser.Parse(`SELECT col1 FROM t1 WHERE
		(col1 = 1 AND col2 = 2 AND col3 > 3) OR (col2 = 4 AND col4 < 5)`)
	factors := DNF(stmt.(*sqlparser.Select).Where)
	if len(factors) != 2 {
		t.Fatalf("factors = %d", len(factors))
	}
	if len(factors[0]) != 3 || len(factors[1]) != 2 {
		t.Fatalf("factor sizes = %d, %d", len(factors[0]), len(factors[1]))
	}
}

func TestDNFDistribution(t *testing.T) {
	// a AND (b OR c) => (a AND b) OR (a AND c)
	stmt, _ := sqlparser.Parse("SELECT col1 FROM t1 WHERE col1 = 1 AND (col2 = 2 OR col3 = 3)")
	factors := DNF(stmt.(*sqlparser.Select).Where)
	if len(factors) != 2 {
		t.Fatalf("factors = %d", len(factors))
	}
	for _, f := range factors {
		if len(f) != 2 {
			t.Fatalf("factor size = %d", len(f))
		}
	}
}

func TestDNFNotPushdown(t *testing.T) {
	// NOT (a OR b) => NOT a AND NOT b (single factor, two atoms)
	stmt, _ := sqlparser.Parse("SELECT col1 FROM t1 WHERE NOT (col1 = 1 OR col2 = 2)")
	factors := DNF(stmt.(*sqlparser.Select).Where)
	if len(factors) != 1 || len(factors[0]) != 2 {
		t.Fatalf("factors = %v", factors)
	}
}

func TestDNFBlowupFallback(t *testing.T) {
	// 2^8 = 256 > DNFLimit: falls back to one factor with all atoms.
	sql := "SELECT col1 FROM t1 WHERE (col1=1 OR col2=1)"
	for i := 0; i < 7; i++ {
		sql += " AND (col1=1 OR col2=1)"
	}
	stmt, _ := sqlparser.Parse(sql)
	factors := DNF(stmt.(*sqlparser.Select).Where)
	if len(factors) != 1 {
		t.Fatalf("fallback factors = %d", len(factors))
	}
	if len(factors[0]) != 16 {
		t.Fatalf("fallback atoms = %d, want 16", len(factors[0]))
	}
}

func TestNotAtomsAreOther(t *testing.T) {
	info := analyze(t, "SELECT col1 FROM t1 WHERE col1 != 3 AND NOT col2 = 1")
	for _, a := range info.FilterAtoms[0] {
		if a.Op != OpOther {
			t.Errorf("atom %v should be OTHER", a.Column)
		}
	}
}

func TestAnalyzeOrderByAlias(t *testing.T) {
	// ORDER BY a select-list alias must not fail binding, and must not
	// produce index-candidate order columns.
	info := analyze(t, "SELECT col2, col1 + 1 AS score FROM t1 GROUP BY col2 ORDER BY score DESC")
	if len(info.OrderBy) != 0 {
		t.Fatalf("alias order column resolved to table column: %v", info.OrderBy)
	}
	if len(info.GroupBy) != 1 {
		t.Fatalf("group by = %v", info.GroupBy)
	}
}

// TestQualifiedStarInJoin: b.* references every column of b alone, and an
// unknown qualifier is an error.
func TestQualifiedStarInJoin(t *testing.T) {
	info := analyze(t, "SELECT b.* FROM t1 a JOIN t2 b ON b.t1_id = a.id")
	if !info.SelectsStar {
		t.Error("SelectsStar = false")
	}
	if got := strings.Join(info.Referenced[0], ","); got != "id" {
		t.Errorf("a references %s, want id (the join column)", got)
	}
	if got := strings.Join(info.Referenced[1], ","); got != "col2,col4,id,t1_id" {
		t.Errorf("b references %s, want all four of its columns", got)
	}
	stmt, err := sqlparser.Parse("SELECT z.* FROM t1 a JOIN t2 b ON b.t1_id = a.id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(stmt.(*sqlparser.Select), testSchema(t)); err == nil || !strings.Contains(err.Error(), `unknown table "z"`) {
		t.Fatalf("z.*: err = %v, want unknown table", err)
	}
}
