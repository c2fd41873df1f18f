package regression

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// mustParse parses a statement the test records with synthesized statistics.
func mustParse(t testing.TB, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func fixture(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.New("prod")
	db.MustExec("CREATE TABLE t (id INT, a INT, b INT, PRIMARY KEY (id))")
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", i, r.Intn(50), r.Intn(50)))
	}
	db.Analyze()
	return db
}

// window records execs executions of one query on db, each with its
// executed plan and synthesized statistics of the given CPU.
func window(t testing.TB, db *engine.DB, cpuPerExec float64, execs int) *workload.Monitor {
	t.Helper()
	const sql = "SELECT b FROM t WHERE a = 5"
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	mon := workload.NewMonitor()
	for i := 0; i < execs; i++ {
		// Synthesize stats with the desired CPU: page reads dominate.
		pages := int64(cpuPerExec / exec.CostPageRead)
		if _, err := mon.Ingest(res.Entry, res.Template, sql, &exec.Stats{PageReads: pages, RowsRead: 10, RowsSent: 1}, 0, res.UsedIndexes); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

func TestDetectorFlagsRegression(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.3)
	if regs := d.Observe(db, window(t, db, 0.001, 10)); len(regs) != 0 {
		t.Fatalf("first window flagged: %v", regs)
	}
	// Second window: 3x the CPU.
	regs := d.Observe(db, window(t, db, 0.003, 10))
	if len(regs) != 1 {
		t.Fatalf("regressions = %d", len(regs))
	}
	if regs[0].Change() < 1.5 {
		t.Errorf("change = %v", regs[0].Change())
	}
	if regs[0].String() == "" {
		t.Error("empty description")
	}
}

func TestDetectorIgnoresSmallChangesAndRareQueries(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.5)
	d.Observe(db, window(t, db, 0.001, 10))
	// +20% is below the 50% threshold.
	if regs := d.Observe(db, window(t, db, 0.0012, 10)); len(regs) != 0 {
		t.Fatalf("small change flagged: %v", regs)
	}
	// Rare queries (1 exec < MinExecutions) are ignored.
	d2 := NewDetector(0.1)
	d2.Observe(db, window(t, db, 0.001, 1))
	if regs := d2.Observe(db, window(t, db, 0.01, 1)); len(regs) != 0 {
		t.Fatal("rare query flagged")
	}
}

func TestDetectorAttributesAutomationIndexes(t *testing.T) {
	db := fixture(t)
	// An automation-created index that the query's plan will use.
	if _, err := db.CreateIndex(&catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"}); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	d := NewDetector(0.3)
	d.Observe(db, window(t, db, 0.001, 10))
	regs := d.Observe(db, window(t, db, 0.01, 10))
	if len(regs) != 1 {
		t.Fatalf("regressions = %d", len(regs))
	}
	if len(regs[0].SuspectIndexes) != 1 || regs[0].SuspectIndexes[0].Name != "aim_t_a" {
		t.Fatalf("suspects = %v", regs[0].SuspectIndexes)
	}
	dropped := d.Revert(db, regs)
	if len(dropped) != 1 || dropped[0] != "t(a)" {
		t.Fatalf("dropped = %v", dropped)
	}
	if db.Schema.Index("aim_t_a") != nil {
		t.Fatal("revert did not drop index")
	}
}

func TestDetectorDoesNotSuspectDBAIndexes(t *testing.T) {
	db := fixture(t)
	if _, err := db.CreateIndex(&catalog.Index{Name: "dba_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "dba"}); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	d := NewDetector(0.3)
	d.Observe(db, window(t, db, 0.001, 10))
	regs := d.Observe(db, window(t, db, 0.01, 10))
	if len(regs) != 1 {
		t.Fatalf("regressions = %d", len(regs))
	}
	if len(regs[0].SuspectIndexes) != 0 {
		t.Fatal("DBA index suspected")
	}
	if dropped := d.Revert(db, regs); len(dropped) != 0 {
		t.Fatal("DBA index reverted")
	}
}

func TestDetectorCarriesBaselineAcrossQuietWindows(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.3)
	// Window 1: active at low CPU establishes the baseline.
	d.Observe(db, window(t, db, 0.001, 10))
	// Window 2: the query goes quiet (below MinExecutions). The baseline
	// must be carried forward, not discarded.
	d.Observe(db, window(t, db, 0.001, 1))
	// Window 3: active again at 3x the CPU — must flag against window 1.
	regs := d.Observe(db, window(t, db, 0.003, 10))
	if len(regs) != 1 {
		t.Fatalf("active→quiet→regressed flagged %d regressions, want 1", len(regs))
	}
	if regs[0].BaselineAge != 1 {
		t.Errorf("baseline age = %d, want 1", regs[0].BaselineAge)
	}
	if regs[0].Change() < 1.5 {
		t.Errorf("change = %v", regs[0].Change())
	}
}

func TestDetectorCarriesBaselineAcrossEmptyWindows(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.3)
	d.Observe(db, window(t, db, 0.001, 10))
	// Two entirely empty windows: the query is absent, not just rare.
	d.Observe(db, workload.NewMonitor())
	d.Observe(db, workload.NewMonitor())
	regs := d.Observe(db, window(t, db, 0.003, 10))
	if len(regs) != 1 {
		t.Fatalf("regression after empty windows flagged %d, want 1", len(regs))
	}
	if regs[0].BaselineAge != 2 {
		t.Errorf("baseline age = %d, want 2", regs[0].BaselineAge)
	}
}

func TestDetectorDropsStaleBaselines(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.3)
	d.MaxBaselineAge = 2
	d.Observe(db, window(t, db, 0.001, 10))
	// Three quiet windows age the baseline to 3 > MaxBaselineAge: dropped.
	for i := 0; i < 3; i++ {
		d.Observe(db, workload.NewMonitor())
	}
	if regs := d.Observe(db, window(t, db, 0.01, 10)); len(regs) != 0 {
		t.Fatalf("stale baseline flagged: %v", regs)
	}
	// The fresh window re-established a baseline, so a subsequent jump is
	// caught again.
	if regs := d.Observe(db, window(t, db, 0.05, 10)); len(regs) != 1 {
		t.Fatalf("baseline not re-established: %d regressions", len(regs))
	}
}

func TestRevertIdempotent(t *testing.T) {
	db := fixture(t)
	if _, err := db.CreateIndex(&catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"}); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	ix := db.Schema.Index("aim_t_a")
	// The same suspect appears in two regressions of one call.
	regs := []*Regression{
		{Normalized: "q1", SuspectIndexes: []*catalog.Index{ix}},
		{Normalized: "q2", SuspectIndexes: []*catalog.Index{ix}},
	}
	d := NewDetector(0.3)
	dropped := d.Revert(db, regs)
	if len(dropped) != 1 || dropped[0] != "t(a)" {
		t.Fatalf("first revert dropped %v, want [t(a)]", dropped)
	}
	// A second call over the same regressions finds nothing left to drop.
	if again := d.Revert(db, regs); len(again) != 0 {
		t.Fatalf("second revert dropped %v, want none", again)
	}
}

// flagged runs the query sql on db, ingests its plan into two windows whose
// CPU rises tenfold, and returns the detector's one regression.
func flagged(t *testing.T, db *engine.DB, sql string) *Regression {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector(0.3)
	var regs []*Regression
	for _, pages := range []int64{10, 100} {
		mon := workload.NewMonitor()
		for i := 0; i < 5; i++ {
			if _, err := mon.Ingest(res.Entry, res.Template, sql, &exec.Stats{PageReads: pages}, 0, res.UsedIndexes); err != nil {
				t.Fatal(err)
			}
		}
		regs = d.Observe(db, mon)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v", regs)
	}
	return regs[0]
}

func suspectNames(r *Regression) []string {
	var out []string
	for _, ix := range r.SuspectIndexes {
		out = append(out, ix.Name)
	}
	return out
}

// TestSuspectsReadByTwoInstancesListedOnce: a self-join reads one automation
// index for two table instances; the regression names it once.
func TestSuspectsReadByTwoInstancesListedOnce(t *testing.T) {
	db := engine.New("prod")
	db.MustExec("CREATE TABLE t001 (id INT, c4 INT, c6 INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE t003 (id INT, c2 INT, c6 INT, PRIMARY KEY (id))")
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t001 VALUES (%d, %d, %d)", i, r.Intn(1000), r.Intn(500)))
		db.MustExec(fmt.Sprintf("INSERT INTO t003 VALUES (%d, %d, %d)", i, r.Intn(200), r.Intn(500)))
	}
	for _, ix := range []*catalog.Index{
		{Name: "aim_t001_c6_c4", Table: "t001", Columns: []string{"c6", "c4"}, CreatedBy: "aim"},
		{Name: "aim_t003_c2", Table: "t003", Columns: []string{"c2"}, CreatedBy: "aim"},
	} {
		if _, err := db.CreateIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	const sql = "SELECT a.id FROM t003 AS a, t001 AS b, t001 AS c WHERE b.c6 = a.c6 AND c.c6 = b.c6 AND a.c2 = 7 AND c.c4 < 100 LIMIT 50"
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"aim_t003_c2", "aim_t001_c6_c4", "aim_t001_c6_c4"}; !reflect.DeepEqual(res.UsedIndexes, want) {
		t.Fatalf("plan reads %v, the fixture wants %v", res.UsedIndexes, want)
	}
	if got, want := suspectNames(flagged(t, db, sql)), []string{"aim_t003_c2", "aim_t001_c6_c4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("suspects = %v, want %v", got, want)
	}
}

// TestSuspectsAreTheIndexesTheWindowRead: the executed plans read ix_b (the
// range is narrow), while the template, whose range is a placeholder, would
// plan ix_a. The suspect is ix_b.
func TestSuspectsAreTheIndexesTheWindowRead(t *testing.T) {
	db := engine.New("prod")
	db.MustExec("CREATE TABLE t (id INT, a INT, b INT, PRIMARY KEY (id))")
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", i, r.Intn(200), r.Intn(10000)))
	}
	for _, ix := range []*catalog.Index{
		{Name: "ix_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"},
		{Name: "ix_b", Table: "t", Columns: []string{"b"}, CreatedBy: "aim"},
	} {
		if _, err := db.CreateIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	const sql = "SELECT id FROM t WHERE a = 3 AND b > 9995"
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ix_b"}; !reflect.DeepEqual(res.UsedIndexes, want) {
		t.Fatalf("plan reads %v, the fixture wants %v", res.UsedIndexes, want)
	}
	tmpl, err := sqlparser.Parse(res.Template)
	if err != nil {
		t.Fatal(err)
	}
	est, err := db.Optimizer.EstimateSelect(tmpl.(*sqlparser.Select), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Used) != 1 || est.Used[0].Index == nil || est.Used[0].Index.Name != "ix_a" {
		t.Fatalf("the template plans %v, the fixture wants ix_a", est.Desc)
	}
	if got, want := suspectNames(flagged(t, db, sql)), []string{"ix_b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("suspects = %v, want %v", got, want)
	}
}
