package regression

import (
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/workload"
)

// maintenanceFixture is the regression fixture plus one automation index on
// t(a) — the index whose economics ObserveMaintenance re-runs.
func maintenanceFixture(t *testing.T) *engine.DB {
	t.Helper()
	db := fixture(t)
	if _, err := db.CreateIndex(&catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"}); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	return db
}

// record adds execs executions of sql to the monitor.
func record(t *testing.T, mon *workload.Monitor, sql string, execs int) {
	t.Helper()
	for i := 0; i < execs; i++ {
		if err := mon.RecordStmt(mustParse(t, sql), exec.Stats{PageReads: 5, RowsRead: 10}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestObserveMaintenanceFlagsWriteTrap: a window that is all UPDATEs touching
// the indexed column, with no reads to pay for the index, must flag the
// automation index as a maintenance regression with the dominant DML as the
// named query — the case the window-over-window detector is blind to because
// the first write-heavy window establishes baselines with the index cost
// already included.
func TestObserveMaintenanceFlagsWriteTrap(t *testing.T) {
	db := maintenanceFixture(t)
	d := NewDetector(0.5)
	mon := workload.NewMonitor()
	record(t, mon, "UPDATE t SET a = 9 WHERE b = 3", 40)
	regs := d.ObserveMaintenance(db, mon)
	if len(regs) != 1 {
		t.Fatalf("regressions = %d, want 1", len(regs))
	}
	r := regs[0]
	if r.ReasonCode != "maintenance_regression" {
		t.Errorf("reason = %q", r.ReasonCode)
	}
	if len(r.SuspectIndexes) != 1 || r.SuspectIndexes[0].Name != "aim_t_a" {
		t.Errorf("suspects = %v", r.SuspectIndexes)
	}
	if r.Normalized != "UPDATE t SET a = ? WHERE b = ?" {
		t.Errorf("dominant DML = %q", r.Normalized)
	}
	// The flagged regression is Revert-ready.
	if dropped := d.Revert(db, regs); len(dropped) != 1 || dropped[0] != "t(a)" {
		t.Fatalf("Revert dropped %v", dropped)
	}
	if db.Schema.Index("aim_t_a") != nil {
		t.Fatal("revert did not drop the index")
	}
}

// TestObserveMaintenanceSparesPayingIndex: the same write pressure plus a
// read workload the index serves must NOT flag it — the gain side of the
// economics outweighs the maintenance side.
func TestObserveMaintenanceSparesPayingIndex(t *testing.T) {
	db := maintenanceFixture(t)
	d := NewDetector(0.5)
	mon := workload.NewMonitor()
	record(t, mon, "UPDATE t SET a = 9 WHERE b = 3", 5)
	record(t, mon, "SELECT b FROM t WHERE a = 5", 400)
	if regs := d.ObserveMaintenance(db, mon); len(regs) != 0 {
		t.Fatalf("paying index flagged: %+v", regs[0])
	}
}

// TestObserveMaintenanceIgnoresQuietAndForeignIndexes: DBA indexes are never
// candidates, rare DML stays below MinExecutions, and a trickle of writes
// under the cost floor is not actionable evidence.
func TestObserveMaintenanceIgnoresQuietAndForeignIndexes(t *testing.T) {
	db := fixture(t)
	if _, err := db.CreateIndex(&catalog.Index{Name: "dba_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "dba"}); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	d := NewDetector(0.5)
	mon := workload.NewMonitor()
	record(t, mon, "UPDATE t SET a = 9 WHERE b = 3", 40)
	if regs := d.ObserveMaintenance(db, mon); len(regs) != 0 {
		t.Fatalf("DBA index flagged: %+v", regs[0])
	}

	// Rare DML: below the detector's MinExecutions.
	db2 := maintenanceFixture(t)
	mon2 := workload.NewMonitor()
	record(t, mon2, "UPDATE t SET a = 9 WHERE b = 3", int(d.MinExecutions)-1)
	if regs := d.ObserveMaintenance(db2, mon2); len(regs) != 0 {
		t.Fatalf("rare DML flagged: %+v", regs[0])
	}

	// A window with no automation indexes at all returns immediately.
	if regs := d.ObserveMaintenance(fixture(t), mon); len(regs) != 0 {
		t.Fatalf("indexless schema flagged: %+v", regs[0])
	}
}
