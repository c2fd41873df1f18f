package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"aim/internal/catalog"
	"aim/internal/obs"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// newSalesDB builds a small e-commerce database used across engine tests.
func newSalesDB(t testing.TB) *DB {
	db := New("sales")
	db.MustExec(`CREATE TABLE customers (id INT, city VARCHAR(16), tier INT, name VARCHAR(32), PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE orders (id INT, cust_id INT, status VARCHAR(8), amount FLOAT, day INT, PRIMARY KEY (id))`)
	cities := []string{"sf", "nyc", "la", "chi", "sea"}
	statuses := []string{"new", "paid", "shipped", "done"}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO customers VALUES (%d, '%s', %d, 'cust%d')",
			i, cities[i%len(cities)], i%4, i))
	}
	for i := 0; i < 4000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, '%s', %.2f, %d)",
			i, r.Intn(200), statuses[r.Intn(4)], r.Float64()*500, r.Intn(365)))
	}
	db.Analyze()
	return db
}

func rowsKey(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(sqltypes.EncodeKey(nil, r...))
	}
	sort.Strings(out)
	return out
}

func sameResults(t *testing.T, a, b []sqltypes.Row) {
	t.Helper()
	ka, kb := rowsKey(a), rowsKey(b)
	if len(ka) != len(kb) {
		t.Fatalf("row counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("rows differ at %d", i)
		}
	}
}

func TestEndToEndSelect(t *testing.T) {
	db := newSalesDB(t)
	res, err := db.Exec("SELECT id, city FROM customers WHERE tier = 2 AND city = 'sf'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range res.Rows {
		if r[1].Str() != "sf" {
			t.Fatalf("filter leak: %v", r)
		}
	}
	if res.Columns[0] != "id" || res.Columns[1] != "city" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestIndexChangesPlanNotResults(t *testing.T) {
	db := newSalesDB(t)
	q := "SELECT id, amount FROM orders WHERE cust_id = 42 AND status = 'paid'"
	before, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.UsedIndexes) != 0 {
		t.Fatalf("unexpected index use: %v", before.UsedIndexes)
	}
	if _, err := db.Exec("CREATE INDEX o_cs ON orders (cust_id, status)"); err != nil {
		t.Fatal(err)
	}
	after, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.UsedIndexes) != 1 || after.UsedIndexes[0] != "o_cs" {
		t.Fatalf("index not used: %v (plan %v)", after.UsedIndexes, after.PlanDesc)
	}
	sameResults(t, before.Rows, after.Rows)
	if after.Stats.RowsRead >= before.Stats.RowsRead {
		t.Errorf("index did not reduce rows read: %d vs %d", after.Stats.RowsRead, before.Stats.RowsRead)
	}
}

func TestJoinUsesIndexNestedLoop(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec("CREATE INDEX o_cust ON orders (cust_id)")
	q := `SELECT c.name, o.amount FROM customers c JOIN orders o ON o.cust_id = c.id
		WHERE c.city = 'nyc' AND o.status = 'paid'`
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ix := range res.UsedIndexes {
		if ix == "o_cust" {
			found = true
		}
	}
	if !found {
		t.Fatalf("join should use o_cust: %v", res.PlanDesc)
	}
	// Compare against forced full order (straight join from orders side).
	res2, err := db.Exec(`SELECT STRAIGHT_JOIN c.name, o.amount FROM orders o, customers c
		WHERE o.cust_id = c.id AND c.city = 'nyc' AND o.status = 'paid'`)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, res.Rows, res2.Rows)
}

func TestGroupByAndAggregates(t *testing.T) {
	db := newSalesDB(t)
	res, err := db.Exec("SELECT status, COUNT(*), SUM(amount), AVG(amount) FROM orders GROUP BY status")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].Int()
	}
	if total != 4000 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestOrderByLimitUsesIndexOrder(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec("CREATE INDEX o_day ON orders (day)")
	db.Analyze()
	res, err := db.Exec("SELECT id, day FROM orders ORDER BY day LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Int() > res.Rows[i][1].Int() {
			t.Fatal("not sorted")
		}
	}
	// The ordered index + early termination should read far fewer rows
	// than the table size.
	if res.Stats.RowsRead > 400 {
		t.Errorf("ordered limit read %d rows (plan %v)", res.Stats.RowsRead, res.PlanDesc)
	}
	if res.Stats.SortRows != 0 {
		t.Errorf("sort not avoided (plan %v)", res.PlanDesc)
	}
}

func TestWhatIfEstimates(t *testing.T) {
	db := newSalesDB(t)
	stmt, err := sqlparser.Parse("SELECT id FROM orders WHERE cust_id = 7")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sqlparser.Select)
	base, err := db.Optimizer.EstimateSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	hypo := &catalog.Index{Name: "hypo_cust", Table: "orders", Columns: []string{"cust_id"}, Hypothetical: true}
	with, err := db.Optimizer.EstimateSelect(sel, []*catalog.Index{hypo})
	if err != nil {
		t.Fatal(err)
	}
	if with.Cost >= base.Cost {
		t.Fatalf("hypothetical index did not reduce cost: %v vs %v", with.Cost, base.Cost)
	}
	if len(with.Used) != 1 || with.Used[0].Index.Key() != "orders(cust_id)" {
		t.Fatalf("used = %v", with.Used)
	}
	if db.Optimizer.Calls() < 2 {
		t.Error("optimizer calls not counted")
	}
}

func TestWhatIfMatchesMaterializedEstimate(t *testing.T) {
	db := newSalesDB(t)
	stmt, _ := sqlparser.Parse("SELECT id FROM orders WHERE cust_id = 7 AND status = 'paid'")
	sel := stmt.(*sqlparser.Select)
	hypo := &catalog.Index{Name: "h", Table: "orders", Columns: []string{"cust_id", "status"}, Hypothetical: true}
	withHypo, err := db.Optimizer.EstimateSelect(sel, []*catalog.Index{hypo})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX real_cs ON orders (cust_id, status)")
	withReal, err := db.Optimizer.EstimateSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same statistics, same shape: the estimates must agree.
	if diff := withHypo.Cost - withReal.Cost; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("hypothetical %v != materialized %v", withHypo.Cost, withReal.Cost)
	}
}

func TestEstimateTracksActualOrdering(t *testing.T) {
	// The optimizer's cost should rank plans consistently with observed
	// work: indexed access must be both estimated and measured cheaper.
	db := newSalesDB(t)
	q := "SELECT id FROM orders WHERE cust_id = 3"
	stmt, _ := sqlparser.Parse(q)
	sel := stmt.(*sqlparser.Select)
	estBefore, _ := db.Optimizer.EstimateSelect(sel, nil)
	resBefore, _ := db.Exec(q)
	db.MustExec("CREATE INDEX oc ON orders (cust_id)")
	estAfter, _ := db.Optimizer.EstimateSelect(sel, nil)
	resAfter, _ := db.Exec(q)
	if !(estAfter.Cost < estBefore.Cost) {
		t.Error("estimates did not improve")
	}
	cpuBefore := resBefore.Stats.CPUSeconds()
	cpuAfter := resAfter.Stats.CPUSeconds()
	if !(cpuAfter < cpuBefore) {
		t.Errorf("actual cpu did not improve: %v vs %v", cpuAfter, cpuBefore)
	}
}

func TestUpdateDeleteViaIndexes(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec("CREATE INDEX o_cust ON orders (cust_id)")
	res, err := db.Exec("UPDATE orders SET status = 'void' WHERE cust_id = 12")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsSent == 0 {
		t.Fatal("nothing updated")
	}
	check, _ := db.Exec("SELECT COUNT(*) FROM orders WHERE cust_id = 12 AND status = 'void'")
	if check.Rows[0][0].Int() != res.Stats.RowsSent {
		t.Fatalf("updated %d but see %d", res.Stats.RowsSent, check.Rows[0][0].Int())
	}
	del, err := db.Exec("DELETE FROM orders WHERE cust_id = 12")
	if err != nil {
		t.Fatal(err)
	}
	if del.Stats.RowsSent != res.Stats.RowsSent {
		t.Fatalf("deleted %d, expected %d", del.Stats.RowsSent, res.Stats.RowsSent)
	}
	verify, _ := db.Exec("SELECT COUNT(*) FROM orders WHERE cust_id = 12")
	if verify.Rows[0][0].Int() != 0 {
		t.Fatal("rows survived delete")
	}
}

func TestCloneIsolation(t *testing.T) {
	db := newSalesDB(t)
	clone := db.Clone("shadow")
	clone.MustExec("CREATE INDEX c_city ON customers (city)")
	clone.MustExec("DELETE FROM orders WHERE id < 100")
	if db.Schema.Index("c_city") != nil {
		t.Fatal("index leaked to original")
	}
	orig, _ := db.Exec("SELECT COUNT(*) FROM orders")
	if orig.Rows[0][0].Int() != 4000 {
		t.Fatal("delete leaked to original")
	}
	cl, _ := clone.Exec("SELECT COUNT(*) FROM orders")
	if cl.Rows[0][0].Int() != 3900 {
		t.Fatal("clone delete missing")
	}
}

// TestCloneAllocs pins what a snapshot handle costs to make: the schema and
// store copies, the optimizer with its template memo and the executor. A
// clone carries no what-if memo (only a DTA or Extend run builds one).
func TestCloneAllocs(t *testing.T) {
	db := New("clone_allocs")
	db.MustExec("CREATE TABLE kv (id INT, v INT, w INT, PRIMARY KEY (id))")
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", i, i%7, i%11))
	}
	if n := testing.AllocsPerRun(100, func() { db.Clone("c").Release() }); n > 49 {
		t.Errorf("Clone+Release: %.0f allocations, want at most 49", n)
	}
}

func TestEstimateDMLAttributesIndexMaintenance(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec("CREATE INDEX o_cust ON orders (cust_id)")
	db.MustExec("CREATE INDEX o_status ON orders (status)")
	stmt, _ := sqlparser.Parse("INSERT INTO orders VALUES (99999, 1, 'new', 5.0, 1)")
	est, err := db.Optimizer.EstimateDML(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.IndexMaintenance) != 2 {
		t.Fatalf("maintenance entries = %v", est.IndexMaintenance)
	}
	if est.TotalCost() <= est.BaseCost {
		t.Error("maintenance should add cost")
	}
	// Updates only charge indexes whose columns are modified.
	stmt2, _ := sqlparser.Parse("UPDATE orders SET status = 'x' WHERE id = 5")
	est2, err := db.Optimizer.EstimateDML(stmt2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, hasCust := est2.IndexMaintenance["orders(cust_id)"]; hasCust {
		t.Error("cust index should not be charged for status update")
	}
	if _, hasStatus := est2.IndexMaintenance["orders(status)"]; !hasStatus {
		t.Error("status index must be charged")
	}
}

func TestCoveringIndexAvoidsLookups(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec("CREATE INDEX o_cov ON orders (cust_id, status, amount)")
	res, err := db.Exec("SELECT status, amount FROM orders WHERE cust_id = 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PlanDesc) == 0 || !contains(res.PlanDesc[0], "covering") {
		t.Fatalf("expected covering plan, got %v", res.PlanDesc)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestExplain: planning a one-table SELECT describes one access step.
func TestExplain(t *testing.T) {
	db := newSalesDB(t)
	stmt, err := sqlparser.Parse("SELECT id FROM orders WHERE cust_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	_, desc, err := db.Optimizer.BuildSelectPlan(stmt.(*sqlparser.Select))
	if err != nil || len(desc) != 1 {
		t.Fatalf("explain: %v %v", desc, err)
	}
}

func TestInListQuery(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec("CREATE INDEX o_cust ON orders (cust_id)")
	res, err := db.Exec("SELECT id FROM orders WHERE cust_id IN (3, 5, 8)")
	if err != nil {
		t.Fatal(err)
	}
	full, err := db.Exec("SELECT id FROM orders WHERE cust_id = 3 OR cust_id = 5 OR cust_id = 8")
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, res.Rows, full.Rows)
	if len(res.UsedIndexes) == 0 {
		t.Errorf("IN should use index: %v", res.PlanDesc)
	}
}

func TestThreeWayJoinCorrectness(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec(`CREATE TABLE regions (city VARCHAR(16), region VARCHAR(8), PRIMARY KEY (city))`)
	for _, rc := range [][2]string{{"sf", "west"}, {"la", "west"}, {"sea", "west"}, {"nyc", "east"}, {"chi", "mid"}} {
		db.MustExec(fmt.Sprintf("INSERT INTO regions VALUES ('%s', '%s')", rc[0], rc[1]))
	}
	db.MustExec("CREATE INDEX o_cust ON orders (cust_id)")
	db.Analyze()
	q := `SELECT r.region, COUNT(*) FROM regions r
		JOIN customers c ON c.city = r.city
		JOIN orders o ON o.cust_id = c.id
		WHERE r.region = 'west' GROUP BY r.region`
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "west" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Verify the count against a manual computation.
	manual, _ := db.Exec(`SELECT COUNT(*) FROM customers c JOIN orders o ON o.cust_id = c.id
		WHERE c.city IN ('sf', 'la', 'sea')`)
	if res.Rows[0][1].Int() != manual.Rows[0][0].Int() {
		t.Fatalf("join count %v != manual %v", res.Rows[0][1], manual.Rows[0][0])
	}
}

// TestPlanEquivalenceProperty executes randomized filter queries with and
// without indexes and requires identical results — the core executor/
// optimizer correctness invariant.
func TestPlanEquivalenceProperty(t *testing.T) {
	db := newSalesDB(t)
	r := rand.New(rand.NewSource(21))
	queries := make([]string, 0, 30)
	statuses := []string{"new", "paid", "shipped", "done"}
	for i := 0; i < 30; i++ {
		switch r.Intn(4) {
		case 0:
			queries = append(queries, fmt.Sprintf("SELECT id FROM orders WHERE cust_id = %d", r.Intn(200)))
		case 1:
			queries = append(queries, fmt.Sprintf("SELECT id FROM orders WHERE cust_id = %d AND status = '%s'", r.Intn(200), statuses[r.Intn(4)]))
		case 2:
			queries = append(queries, fmt.Sprintf("SELECT id, amount FROM orders WHERE day BETWEEN %d AND %d AND amount > %d", r.Intn(180), 180+r.Intn(180), r.Intn(400)))
		case 3:
			queries = append(queries, fmt.Sprintf("SELECT status, COUNT(*) FROM orders WHERE day > %d GROUP BY status", r.Intn(300)))
		}
	}
	before := make([][]sqltypes.Row, len(queries))
	for i, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		before[i] = res.Rows
	}
	db.MustExec("CREATE INDEX x1 ON orders (cust_id, status)")
	db.MustExec("CREATE INDEX x2 ON orders (day, amount)")
	db.MustExec("CREATE INDEX x3 ON orders (status)")
	db.Analyze()
	for i, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		sameResults(t, before[i], res.Rows)
	}
}

func TestIndexSizeAccounting(t *testing.T) {
	db := newSalesDB(t)
	if db.TotalIndexBytes() != 0 {
		t.Fatal("no indexes yet")
	}
	def := &catalog.Index{Name: "o_cust", Table: "orders", Columns: []string{"cust_id"}}
	// Hypothetical sizing before materialization.
	hypo := &catalog.Index{Name: "h", Table: "orders", Columns: []string{"cust_id"}, Hypothetical: true}
	est := db.EstimateIndexSize(hypo)
	if est <= 0 {
		t.Fatal("estimate zero")
	}
	if _, err := db.CreateIndex(def); err != nil {
		t.Fatal(err)
	}
	real := db.Store.Table("orders").Index("o_cust").SizeBytes()
	if real <= 0 {
		t.Fatal("materialized size zero")
	}
	if db.TotalIndexBytes() != real {
		t.Fatalf("total = %d, index = %d", db.TotalIndexBytes(), real)
	}
	// The statistics-based estimate should be within 3x of the real size.
	ratio := float64(est) / float64(real)
	if ratio < 0.33 || ratio > 3 {
		t.Errorf("estimate %d vs real %d (ratio %.2f)", est, real, ratio)
	}
	// Unknown-table estimate is zero, not a panic.
	if db.EstimateIndexSize(&catalog.Index{Name: "x", Table: "ghost", Columns: []string{"a"}}) != 0 {
		t.Error("ghost estimate should be 0")
	}
}

func TestEngineDDLErrors(t *testing.T) {
	db := newSalesDB(t)
	if _, err := db.Exec("DROP INDEX nosuch"); err == nil {
		t.Error("dropping missing index should fail")
	}
	if _, err := db.CreateIndex(&catalog.Index{Name: "h", Table: "orders", Columns: []string{"cust_id"}, Hypothetical: true}); err == nil {
		t.Error("materializing hypothetical index should fail")
	}
	if _, err := db.Exec("CREATE TABLE orders (id INT, PRIMARY KEY (id))"); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Exec("CREATE INDEX bad ON orders (nope)"); err == nil {
		t.Error("unknown column index should fail")
	}
	if _, err := db.Exec("INSERT INTO orders (id) VALUES (1, 2)"); err == nil {
		t.Error("column/value mismatch should fail")
	}
	if _, err := db.Exec("INSERT INTO orders (ghost) VALUES (1)"); err == nil {
		t.Error("unknown insert column should fail")
	}
	if _, err := db.Exec("INSERT INTO ghost VALUES (1)"); err == nil {
		t.Error("unknown table insert should fail")
	}
}

func TestInsertRowsBulkLoader(t *testing.T) {
	db := newSalesDB(t)
	rows := []sqltypes.Row{
		{sqltypes.NewInt(50000), sqltypes.NewInt(1), sqltypes.NewString("new"), sqltypes.NewFloat(1), sqltypes.NewInt(1)},
		{sqltypes.NewInt(50001), sqltypes.NewInt(2), sqltypes.NewString("new"), sqltypes.NewFloat(2), sqltypes.NewInt(2)},
	}
	if err := db.InsertRows("orders", rows); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec("SELECT COUNT(*) FROM orders WHERE id >= 50000")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("bulk rows missing: %v", res.Rows)
	}
	if err := db.InsertRows("ghost", rows); err == nil {
		t.Error("unknown table should fail")
	}
	if err := db.InsertRows("orders", rows); err == nil {
		t.Error("duplicate PKs should fail")
	}
}

// TestEstimateStatementDispatch: every statement kind the advisor costs gets
// a positive estimate from the estimator for its kind.
func TestEstimateStatementDispatch(t *testing.T) {
	db := newSalesDB(t)
	for _, sql := range []string{
		"SELECT id FROM orders WHERE cust_id = 1",
		"INSERT INTO orders VALUES (60000, 1, 'new', 1.0, 1)",
		"UPDATE orders SET status = 'x' WHERE id = 1",
		"DELETE FROM orders WHERE id = 1",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		var cost float64
		if sel, ok := stmt.(*sqlparser.Select); ok {
			est, err := db.Optimizer.EstimateSelect(sel, nil)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			cost = est.Cost
		} else {
			est, err := db.Optimizer.EstimateDML(stmt, nil)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			cost = est.TotalCost()
		}
		if cost <= 0 {
			t.Errorf("%s: cost %v", sql, cost)
		}
	}
	ddl, _ := sqlparser.Parse("CREATE INDEX i ON orders (cust_id)")
	if _, err := db.Optimizer.EstimateDML(ddl, nil); err == nil {
		t.Error("DDL estimate should fail")
	}
}

func TestEstimateDMLConfigIgnoresSchemaIndexes(t *testing.T) {
	db := newSalesDB(t)
	db.MustExec("CREATE INDEX o_cust ON orders (cust_id)")
	stmt, _ := sqlparser.Parse("INSERT INTO orders VALUES (70000, 1, 'new', 1.0, 1)")
	est, err := db.Optimizer.EstimateDMLConfig(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.IndexMaintenance) != 0 {
		t.Fatalf("replace-mode config should hide schema indexes: %v", est.IndexMaintenance)
	}
	withEst, err := db.Optimizer.EstimateDML(stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(withEst.IndexMaintenance) != 1 {
		t.Fatalf("augment mode should see schema index: %v", withEst.IndexMaintenance)
	}
}

func TestSelectWithArithmeticProjectionAndAliases(t *testing.T) {
	db := newSalesDB(t)
	res, err := db.Exec("SELECT amount * 2 AS double_amt, day + 1 FROM orders WHERE id = 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "double_amt" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	single, _ := db.Exec("SELECT amount, day FROM orders WHERE id = 5")
	if res.Rows[0][0].Float() != single.Rows[0][0].Float()*2 {
		t.Error("arithmetic projection wrong")
	}
	if res.Rows[0][1].Int() != single.Rows[0][1].Int()+1 {
		t.Error("day+1 wrong")
	}
}

func TestOrderByAggregate(t *testing.T) {
	db := newSalesDB(t)
	res, err := db.Exec("SELECT status, COUNT(*) AS n FROM orders GROUP BY status ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Int() < res.Rows[i][1].Int() {
			t.Fatal("not sorted by aggregate")
		}
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	db := newSalesDB(t)
	res, err := db.Exec("SELECT id FROM orders WHERE cust_id = 3 ORDER BY amount DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows[0]) != 1 {
		t.Fatalf("hidden sort column leaked: %v", res.Rows)
	}
}

func TestCreateIndexesBatch(t *testing.T) {
	db := newSalesDB(t)
	defs := []*catalog.Index{
		{Name: "ix_cust_city", Table: "customers", Columns: []string{"city"}, CreatedBy: "aim"},
		{Name: "ix_orders_status", Table: "orders", Columns: []string{"status"}, CreatedBy: "aim"},
		{Name: "ix_orders_day", Table: "orders", Columns: []string{"day"}, CreatedBy: "aim"},
	}
	res, err := db.CreateIndexes(defs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.IndexWrites == 0 || res.Stats.RowsRead == 0 {
		t.Errorf("batch build metrics empty: %+v", res.Stats)
	}
	for _, def := range defs {
		if db.Schema.Index(def.Name) == nil {
			t.Errorf("%s missing from schema", def.Name)
		}
		if db.Store.Table(def.Table).Index(def.Name) == nil {
			t.Errorf("%s missing from store", def.Name)
		}
	}
	// The batch-built indexes must serve queries like incrementally built ones.
	r1, _ := db.Exec("SELECT id FROM orders WHERE status = 'paid'")
	db2 := newSalesDB(t)
	r2, _ := db2.Exec("SELECT id FROM orders WHERE status = 'paid'")
	sameResults(t, r1.Rows, r2.Rows)
	if len(r1.UsedIndexes) == 0 {
		t.Errorf("batch-built index unused: %v", r1.PlanDesc)
	}
}

func TestCreateIndexesBatchRollback(t *testing.T) {
	db := newSalesDB(t)
	defs := []*catalog.Index{
		{Name: "ix_ok", Table: "customers", Columns: []string{"tier"}, CreatedBy: "aim"},
		{Name: "ix_bad", Table: "orders", Columns: []string{"nope"}, CreatedBy: "aim"},
	}
	if _, err := db.CreateIndexes(defs); err == nil {
		t.Fatal("bad column should fail the batch")
	}
	// The whole batch rolls back: neither schema nor store keeps the good one.
	for _, name := range []string{"ix_ok", "ix_bad"} {
		if db.Schema.Index(name) != nil {
			t.Errorf("%s leaked into schema", name)
		}
	}
	if db.Store.Table("customers").Index("ix_ok") != nil {
		t.Error("ix_ok leaked into store")
	}
	// A hypothetical def must be refused without side effects.
	hyp := []*catalog.Index{{Name: "ix_hyp", Table: "orders", Columns: []string{"day"}, Hypothetical: true}}
	if _, err := db.CreateIndexes(hyp); err == nil {
		t.Fatal("hypothetical index materialized")
	}
	if db.Schema.Index("ix_hyp") != nil {
		t.Error("hypothetical def leaked into schema")
	}
}

// TestCollectionRestartsChurnCount: rows written before a collection are in
// the collected statistics, so they must not count towards throwing them
// away. A bulk load + Analyze followed by one UPDATE keeps the same
// statistics; only RowCount/5+100 further writes drop them, and the lazy
// re-collection restarts the count just like Analyze.
func TestCollectionRestartsChurnCount(t *testing.T) {
	db := newSalesDB(t)
	reg := obs.NewRegistry()
	db.SetObs(reg)
	collections := reg.Counter("engine.stats_collections")
	before := db.TableStats("orders")
	db.MustExec("UPDATE orders SET amount = 1 WHERE id = 7")
	if db.TableStats("orders") != before {
		t.Fatal("one UPDATE after load + Analyze threw the fresh statistics away")
	}
	// 4000 rows: the rule fires at 4000/5+100 = 900 writes since collection.
	db.MustExec("UPDATE orders SET amount = 2 WHERE id < 898")
	if db.TableStats("orders") != before {
		t.Fatal("statistics dropped below the churn threshold")
	}
	db.MustExec("UPDATE orders SET amount = 3 WHERE id = 8")
	lazy := db.TableStats("orders")
	if lazy == before || collections.Value() != 1 {
		t.Fatalf("churn rule did not fire at the threshold (collections=%d)", collections.Value())
	}
	db.MustExec("UPDATE orders SET amount = 4 WHERE id < 500")
	if db.TableStats("orders") != lazy || collections.Value() != 1 {
		t.Fatal("lazy re-collection did not restart the churn count")
	}
	db.Analyze()
	if db.TableStats("orders") == lazy || collections.Value() != 3 {
		t.Fatalf("Analyze did not re-collect both tables (collections=%d)", collections.Value())
	}
}

// TestLikeMatchesANumbersText: LIKE matches a number as its decimal text, on
// a full scan and with an index on the column, where the pattern's prefix
// must not become a range over string keys (which the planner picks here
// when it may).
func TestLikeMatchesANumbersText(t *testing.T) {
	db := New("like")
	db.MustExec(`CREATE TABLE t1 (id INT, c INT, PRIMARY KEY (id))`)
	for i := 1; i <= 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t1 VALUES (%d, %d)", i, i))
	}
	db.Analyze()
	for _, index := range []bool{false, true} {
		if index {
			db.MustExec("CREATE INDEX ix_c ON t1 (c)")
		}
		for q, want := range map[string]int{
			"SELECT id FROM t1 WHERE c LIKE '12%'":     111, // 12, 120-129, 1200-1299
			"SELECT id FROM t1 WHERE c NOT LIKE '12%'": 2889,
			"SELECT id FROM t1 WHERE c LIKE '_4'":      9,
		} {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != want {
				t.Errorf("index=%v: %s returned %d rows, want %d (plan %v)", index, q, len(res.Rows), want, res.PlanDesc)
			}
		}
	}
}
