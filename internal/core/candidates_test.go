package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/queryinfo"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// paperDB builds the table t1(col1..col5, col12, col13, name) and friends
// used by the paper's running examples.
func paperDB(t testing.TB) *engine.DB {
	db := engine.New("paper")
	db.MustExec(`CREATE TABLE t1 (id INT, col1 INT, col2 INT, col3 INT, col4 FLOAT,
		col5 INT, col12 VARCHAR(8), col13 INT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE t2 (id INT, col2 INT, col4 INT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE t3 (id INT, col2 INT, col7 INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(4))
	words := []string{"ABC", "DEF", "GHI", "JKL"}
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t1 VALUES (%d, %d, %d, %d, %f, %d, '%s', %d)",
			i, r.Intn(100), r.Intn(50), r.Intn(20), r.Float64()*10, r.Intn(1000), words[r.Intn(4)], r.Intn(5000)))
	}
	for i := 0; i < 800; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t2 VALUES (%d, %d, %d)", i, r.Intn(50), r.Intn(100)))
		db.MustExec(fmt.Sprintf("INSERT INTO t3 VALUES (%d, %d, %d)", i, r.Intn(50), r.Intn(100)))
	}
	db.Analyze()
	return db
}

func genFor(db *engine.DB, j int, covering bool) *Generator {
	return &Generator{DB: db, J: j, EnableCovering: covering, SeekThreshold: 50}
}

func monitorWith(t testing.TB, db *engine.DB, queries ...string) *workload.Monitor {
	t.Helper()
	mon := workload.NewMonitor()
	for _, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for i := 0; i < 5; i++ {
			if _, err := mon.Ingest(res.Template, q, res.Stats); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mon
}

func keysOf(pos []*PartialOrder) map[string]bool {
	out := map[string]bool{}
	for _, po := range pos {
		out[po.Key()] = true
	}
	return out
}

func TestSelectionCandidatesSimpleFilter(t *testing.T) {
	// E1-style: WHERE col1 = ? AND col2 = ? AND col3 = ? should produce
	// the partial order <{col1, col2, col3}>.
	db := paperDB(t)
	mon := monitorWith(t, db, "SELECT col4 FROM t1 WHERE col1 = 5 AND col2 = 3 AND col3 = 1")
	pos := genFor(db, 2, false).GenerateCandidates(mon.Representative(workload.SelectionConfig{MinExecutions: 1}))
	if !keysOf(pos)["t1|col1,col2,col3"] {
		t.Fatalf("missing <{col1,col2,col3}>; have %v", keysOf(pos))
	}
}

func TestSelectionCandidatesE3RangeSplit(t *testing.T) {
	// E3: col1 = ? AND col2 = ? AND col3 > ? AND col4 < ? →
	// <{col1, col2}, {last}> where last is the more selective range column.
	db := paperDB(t)
	mon := monitorWith(t, db,
		"SELECT col5 FROM t1 WHERE col1 = 5 AND col2 = 3 AND col3 > 5 AND col4 < 2.0")
	pos := genFor(db, 2, false).GenerateCandidates(mon.Representative(workload.SelectionConfig{MinExecutions: 1}))
	keys := keysOf(pos)
	if !keys["t1|col1,col2|col3"] && !keys["t1|col1,col2|col4"] {
		t.Fatalf("missing <{col1,col2},{range}>; have %v", keys)
	}
	// Exactly one range column is appended, never both.
	for k := range keys {
		if strings.Contains(k, "col3") && strings.Contains(k, "col4") {
			t.Fatalf("candidate with both range columns: %s", k)
		}
	}
}

func TestDatalessIndexPicksMoreSelectiveRange(t *testing.T) {
	// col13 has 5000 NDV (highly selective ranges), col3 has 20. With
	// comparable range predicates, the picker should prefer the narrower
	// estimated scan.
	db := paperDB(t)
	sql := "SELECT col5 FROM t1 WHERE col1 = 5 AND col13 > 4990 AND col3 >= 0"
	mon := monitorWith(t, db, sql)
	pos := genFor(db, 2, false).GenerateCandidates(mon.Representative(workload.SelectionConfig{MinExecutions: 1}))
	keys := keysOf(pos)
	if !keys["t1|col1|col13"] {
		t.Fatalf("expected col13 as the chosen range column; have %v", keys)
	}
	if keys["t1|col1|col3"] {
		t.Fatalf("col3 (unselective) chosen over col13: %v", keys)
	}
}

func TestProjectionCoveringCandidate(t *testing.T) {
	// Q1: SELECT col2, col3 FROM t1 WHERE col5 < 2 with covering mode →
	// <{col5}, {col2, col3}> (the paper's projection example).
	db := paperDB(t)
	sql := "SELECT col2, col3 FROM t1 WHERE col5 < 2"
	stmt, _ := sqlparser.Parse(sql)
	sel := stmt.(*sqlparser.Select)
	info, err := queryinfo.Analyze(sel, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	g := genFor(db, 2, true)
	pos := g.forSelection(sel, info, true, Source{Normalized: sql, Covering: true})
	if !keysOf(pos)["t1|col5|col2,col3"] {
		t.Fatalf("missing <{col5},{col2,col3}>; have %v", keysOf(pos))
	}
}

func TestComplexAndOrDNFCandidates(t *testing.T) {
	// E2: (col1=? AND col2=? AND col3>?) OR (col2=? AND col4<?) →
	// two partial orders: <{col1,col2},{col3}> and <{col2},{col4}>.
	db := paperDB(t)
	mon := monitorWith(t, db,
		"SELECT col5 FROM t1 WHERE (col1 = 1 AND col2 = 2 AND col3 > 3) OR (col2 = 4 AND col4 < 5.0)")
	pos := genFor(db, 2, false).GenerateCandidates(mon.Representative(workload.SelectionConfig{MinExecutions: 1}))
	keys := keysOf(pos)
	if !keys["t1|col1,col2|col3"] {
		t.Errorf("missing first DNF factor; have %v", keys)
	}
	if !keys["t1|col2|col4"] {
		t.Errorf("missing second DNF factor; have %v", keys)
	}
}

func TestGroupByCandidates(t *testing.T) {
	// Q3: GROUP BY col3 → <{col3}>.
	db := paperDB(t)
	mon := monitorWith(t, db, "SELECT col3, COUNT(*) FROM t1 GROUP BY col3")
	pos := genFor(db, 2, false).GenerateCandidates(mon.Representative(workload.SelectionConfig{MinExecutions: 1}))
	if !keysOf(pos)["t1|col3"] {
		t.Fatalf("missing <{col3}>; have %v", keysOf(pos))
	}
}

func TestGroupByCoveringCandidateQ4(t *testing.T) {
	// Q4: SELECT col3, SUM(col1) WHERE col2 = 5 GROUP BY col3 →
	// covering <{col2}, {col3}, {col1}>.
	db := paperDB(t)
	sql := "SELECT col3, SUM(col1) FROM t1 WHERE col2 = 5 GROUP BY col3"
	stmt, _ := sqlparser.Parse(sql)
	sel := stmt.(*sqlparser.Select)
	info, err := queryinfo.Analyze(sel, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	g := genFor(db, 2, true)
	pos := g.forGroupBy(sel, info, true, Source{Normalized: sql, Covering: true})
	if !keysOf(pos)["t1|col2|col3|col1"] {
		t.Fatalf("missing <{col2},{col3},{col1}>; have %v", keysOf(pos))
	}
}

func TestOrderByCandidatesQ5(t *testing.T) {
	// Q5-like: WHERE col12 IN (...) ORDER BY col13 LIMIT n → both the IN
	// candidate <{col12}> and the order candidate <{col13}> are generated;
	// the optimizer later decides which wins.
	db := paperDB(t)
	mon := monitorWith(t, db,
		"SELECT col1 FROM t1 WHERE col12 IN ('ABC', 'DEF') ORDER BY col13 LIMIT 5")
	pos := genFor(db, 2, false).GenerateCandidates(mon.Representative(workload.SelectionConfig{MinExecutions: 1}))
	keys := keysOf(pos)
	if !keys["t1|col13"] {
		t.Errorf("missing order-by candidate <{col13}>; have %v", keys)
	}
	if !keys["t1|col12"] {
		t.Errorf("missing selection candidate <{col12}>; have %v", keys)
	}
}

func TestOrderByDescSkipped(t *testing.T) {
	db := paperDB(t)
	stmt, _ := sqlparser.Parse("SELECT col1 FROM t1 ORDER BY col13 DESC")
	sel := stmt.(*sqlparser.Select)
	info, _ := queryinfo.Analyze(sel, db.Schema)
	g := genFor(db, 2, false)
	if pos := g.forOrderBy(sel, info, false, Source{}); len(pos) != 0 {
		t.Fatalf("DESC order generated candidates: %v", pos)
	}
}

func TestOrderByMultiColumnSequence(t *testing.T) {
	db := paperDB(t)
	stmt, _ := sqlparser.Parse("SELECT col1 FROM t1 ORDER BY col2, col3")
	sel := stmt.(*sqlparser.Select)
	info, _ := queryinfo.Analyze(sel, db.Schema)
	g := genFor(db, 2, false)
	pos := g.forOrderBy(sel, info, false, Source{})
	if len(pos) != 1 || pos[0].Key() != "t1|col2|col3" {
		t.Fatalf("order candidates = %v", pos)
	}
}

func TestJoinPowerset(t *testing.T) {
	db := paperDB(t)
	// Q2 from the paper: t1-t3 and t2-t3 join edges.
	stmt, _ := sqlparser.Parse(`SELECT t1.col1, t2.col2, t3.col7 FROM t1, t2, t3
		WHERE t1.col2 = t3.col2 AND t2.col4 = t3.col7`)
	sel := stmt.(*sqlparser.Select)
	info, _ := queryinfo.Analyze(sel, db.Schema)
	g := genFor(db, 2, false)
	// t3 joins both t1 and t2: powerset size 4 for j >= 2.
	if got := len(g.joinedTablesPowerset(info, 2)); got != 4 {
		t.Fatalf("t3 powerset = %d", got)
	}
	// t1 joins only t3.
	if got := len(g.joinedTablesPowerset(info, 0)); got != 2 {
		t.Fatalf("t1 powerset = %d", got)
	}
	// With j = 1 t3's neighbor count (2) exceeds j: only the empty set.
	g1 := genFor(db, 1, false)
	if got := len(g1.joinedTablesPowerset(info, 2)); got != 1 {
		t.Fatalf("t3 powerset with j=1 = %d", got)
	}
}

func TestJoinCandidatesGrowWithJ(t *testing.T) {
	db := paperDB(t)
	sql := `SELECT t1.col1, t2.col2, t3.col7 FROM t1, t2, t3
		WHERE t1.col2 = t3.col2 AND t2.col4 = t3.col7 AND t3.id > 10`
	mon := monitorWith(t, db, sql)
	rep := mon.Representative(workload.SelectionConfig{MinExecutions: 1})
	pos0 := genFor(db, 0, false).GenerateCandidates(rep)
	pos2 := genFor(db, 2, false).GenerateCandidates(rep)
	if len(pos2) <= len(pos0) {
		t.Fatalf("j=2 candidates (%d) should exceed j=0 (%d)", len(pos2), len(pos0))
	}
	// j=2 must include a t3 candidate with both join columns.
	if !keysOf(pos2)["t3|col2,col7|id"] && !keysOf(pos2)["t3|col2,col7"] {
		found := false
		for k := range keysOf(pos2) {
			if strings.HasPrefix(k, "t3|") && strings.Contains(k, "col2") && strings.Contains(k, "col7") {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing coordinated t3 join candidate; have %v", keysOf(pos2))
		}
	}
}

func TestTryCoveringIndexRequiresExistingPrefixIndex(t *testing.T) {
	db := paperDB(t)
	// col1 = ? matches ~30 of 3000 rows: the index plan clearly wins, and
	// with a threshold of 20 those 30 PK lookups justify covering.
	sql := "SELECT col3, col5 FROM t1 WHERE col1 = 5"
	mon := monitorWith(t, db, sql)
	q := mon.Representative(workload.SelectionConfig{MinExecutions: 1})[0]
	sel := q.Sample().(*sqlparser.Select)
	info, _ := queryinfo.Analyze(sel, db.Schema)
	g := genFor(db, 2, true)
	g.SeekThreshold = 20
	// No index exists yet: selectivity can still be improved, so covering
	// mode must be off.
	if g.TryCoveringIndex(sel, info) {
		t.Fatal("covering should not trigger without a prefix index")
	}
	// After materializing the IPP prefix index, the plan performs many PK
	// lookups and covering becomes worthwhile.
	db.MustExec("CREATE INDEX t1_c1 ON t1 (col1)")
	db.Analyze()
	if !g.TryCoveringIndex(sel, info) {
		t.Fatal("covering should trigger with prefix index and many seeks")
	}
	// A tiny seek threshold query (very selective) must not trigger.
	g.SeekThreshold = 1e12
	if g.TryCoveringIndex(sel, info) {
		t.Fatal("covering triggered below seek threshold")
	}
}

func TestLinearizeOrdersBySelectivity(t *testing.T) {
	db := paperDB(t)
	g := genFor(db, 2, false)
	po := NewPartialOrder("t1", []string{"col3", "col13"}) // NDV 20 vs 5000
	ix := g.Linearize(po, 0)
	if ix == nil || ix.Columns[0] != "col13" {
		t.Fatalf("linearized = %+v (want col13 first)", ix)
	}
	if !po.Satisfies(ix.Columns) {
		t.Fatal("linearization violates partial order")
	}
}

func TestLinearizeMaxWidth(t *testing.T) {
	db := paperDB(t)
	g := genFor(db, 2, false)
	po := NewPartialOrder("t1", []string{"col1"}, []string{"col2"}, []string{"col3"}, []string{"col5"})
	ix := g.Linearize(po, 2)
	if len(ix.Columns) != 2 {
		t.Fatalf("width = %d", len(ix.Columns))
	}
}

func TestLinearizeSkipsPKPrefix(t *testing.T) {
	db := paperDB(t)
	g := genFor(db, 2, false)
	po := NewPartialOrder("t1", []string{"id"})
	if ix := g.Linearize(po, 0); ix != nil {
		t.Fatalf("PK prefix candidate not skipped: %v", ix)
	}
}

func TestLinearizationSatisfiesPOProperty(t *testing.T) {
	db := paperDB(t)
	g := genFor(db, 2, true)
	mon := monitorWith(t, db,
		"SELECT col5 FROM t1 WHERE col1 = 5 AND col2 = 3 AND col3 > 5",
		"SELECT col3, COUNT(*) FROM t1 WHERE col2 = 5 GROUP BY col3",
		"SELECT col1 FROM t1 WHERE col12 IN ('ABC') ORDER BY col13 LIMIT 5",
		"SELECT t1.col1 FROM t1, t3 WHERE t1.col2 = t3.col2 AND t3.col7 > 5",
	)
	pos := g.GenerateCandidates(mon.Representative(workload.SelectionConfig{MinExecutions: 1}))
	if len(pos) == 0 {
		t.Fatal("no candidates")
	}
	for _, po := range pos {
		ix := g.Linearize(po, 0)
		if ix == nil {
			continue
		}
		if !po.Satisfies(ix.Columns) {
			t.Fatalf("linearization %v violates %s", ix.Columns, po)
		}
	}
}

// Stats recorder sanity: executing queries through the engine and feeding
// the monitor produces candidates end to end.
func TestGenerateFromExecutedWorkload(t *testing.T) {
	db := paperDB(t)
	mon := workload.NewMonitor()
	for i := 0; i < 20; i++ {
		sql := fmt.Sprintf("SELECT col5 FROM t1 WHERE col1 = %d AND col2 = %d", i%100, i%50)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		mon.Ingest(res.Template, sql, res.Stats)
	}
	rep := mon.Representative(workload.DefaultSelection())
	if len(rep) != 1 {
		t.Fatalf("representative = %d", len(rep))
	}
	pos := genFor(db, 2, false).GenerateCandidates(rep)
	if !keysOf(pos)["t1|col1,col2"] {
		t.Fatalf("missing <{col1,col2}>; have %v", keysOf(pos))
	}
}

var _ = exec.Stats{} // keep the import for helpers below
