package regression

import (
	"fmt"
	"math/rand"
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

func window(t testing.TB, cpuPerExec float64, execs int) *workload.Monitor {
	t.Helper()
	mon := workload.NewMonitor()
	for i := 0; i < execs; i++ {
		// Synthesize stats with the desired CPU: page reads dominate.
		pages := int64(cpuPerExec / exec.CostPageRead)
		if err := mon.RecordStmt(mustParse(t, "SELECT b FROM t WHERE a = 5"), exec.Stats{PageReads: pages, RowsRead: 10, RowsSent: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return mon
}

func TestDetectorFlagsRegression(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.3)
	if regs := d.Observe(db, window(t, 0.001, 10)); len(regs) != 0 {
		t.Fatalf("first window flagged: %v", regs)
	}
	// Second window: 3x the CPU.
	regs := d.Observe(db, window(t, 0.003, 10))
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
	d.Observe(db, window(t, 0.001, 10))
	// +20% is below the 50% threshold.
	if regs := d.Observe(db, window(t, 0.0012, 10)); len(regs) != 0 {
		t.Fatalf("small change flagged: %v", regs)
	}
	// Rare queries (1 exec < MinExecutions) are ignored.
	d2 := NewDetector(0.1)
	d2.Observe(db, window(t, 0.001, 1))
	if regs := d2.Observe(db, window(t, 0.01, 1)); len(regs) != 0 {
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
	d.Observe(db, window(t, 0.001, 10))
	regs := d.Observe(db, window(t, 0.01, 10))
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
	d.Observe(db, window(t, 0.001, 10))
	regs := d.Observe(db, window(t, 0.01, 10))
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
	d.Observe(db, window(t, 0.001, 10))
	// Window 2: the query goes quiet (below MinExecutions). The baseline
	// must be carried forward, not discarded.
	d.Observe(db, window(t, 0.001, 1))
	// Window 3: active again at 3x the CPU — must flag against window 1.
	regs := d.Observe(db, window(t, 0.003, 10))
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
	d.Observe(db, window(t, 0.001, 10))
	// Two entirely empty windows: the query is absent, not just rare.
	d.Observe(db, workload.NewMonitor())
	d.Observe(db, workload.NewMonitor())
	regs := d.Observe(db, window(t, 0.003, 10))
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
	d.Observe(db, window(t, 0.001, 10))
	// Three quiet windows age the baseline to 3 > MaxBaselineAge: dropped.
	for i := 0; i < 3; i++ {
		d.Observe(db, workload.NewMonitor())
	}
	if regs := d.Observe(db, window(t, 0.01, 10)); len(regs) != 0 {
		t.Fatalf("stale baseline flagged: %v", regs)
	}
	// The fresh window re-established a baseline, so a subsequent jump is
	// caught again.
	if regs := d.Observe(db, window(t, 0.05, 10)); len(regs) != 1 {
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
