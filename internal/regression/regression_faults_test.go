package regression

import (
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
)

// arm activates a fault spec for the duration of the test.
func arm(t *testing.T, spec string) {
	t.Helper()
	fp, err := failpoint.Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Activate(fp)
	t.Cleanup(func() { failpoint.Activate(nil) })
}

// regressionFor fabricates a regression whose suspect is the given index.
func regressionFor(ix *catalog.Index) []*Regression {
	return []*Regression{{
		Normalized:     "select a from t where a = ?",
		BeforeCPU:      0.001,
		AfterCPU:       0.01,
		SuspectIndexes: []*catalog.Index{ix},
	}}
}

func suspectIndex(t *testing.T, db *engine.DB) *catalog.Index {
	t.Helper()
	ix := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"}
	if _, err := db.CreateIndex(ix); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestRevertSkipsAlreadyDroppedIndex: a suspect that vanished between
// detection and revert (earlier revert, manual drop) is skipped silently —
// the goal state is already reached.
func TestRevertSkipsAlreadyDroppedIndex(t *testing.T) {
	db := fixture(t)
	ix := suspectIndex(t, db)
	if _, err := db.DropIndex(ix.Name); err != nil {
		t.Fatal(err)
	}
	if dropped := NewDetector(0.5).Revert(db, regressionFor(ix)); len(dropped) != 0 {
		t.Fatalf("dropped = %v", dropped)
	}
}

// TestRevertRetriesTransientDropFailure: the first two drop attempts fail;
// the revert policy's retry budget lands the drop anyway.
func TestRevertRetriesTransientDropFailure(t *testing.T) {
	db := fixture(t)
	ix := suspectIndex(t, db)
	arm(t, "engine.drop_index=err()@1-2")
	dropped := NewDetector(0.5).Revert(db, regressionFor(ix))
	if len(dropped) != 1 || dropped[0] != ix.Key() {
		t.Fatalf("dropped = %v", dropped)
	}
	if db.Schema.Index(ix.Name) != nil {
		t.Fatal("index still present after revert")
	}
}

// TestRevertSurfacesPersistentDropFailure: when the drop keeps failing the
// index must stay fully intact (no partial teardown), the failure must be
// counted, and the next window's revert — after the outage clears — must
// succeed.
func TestRevertSurfacesPersistentDropFailure(t *testing.T) {
	db := fixture(t)
	reg := obs.NewRegistry()
	db.SetObs(reg)
	ix := suspectIndex(t, db)
	arm(t, "engine.drop_index=err(1)")
	if dropped := NewDetector(0.5).Revert(db, regressionFor(ix)); len(dropped) != 0 {
		t.Fatalf("dropped = %v", dropped)
	}
	if db.Schema.Index(ix.Name) == nil || db.Store.Table("t").Index(ix.Name) == nil {
		t.Fatal("failed revert left a partial drop")
	}
	if got := reg.Counter("regression.revert_failures").Value(); got != 1 {
		t.Errorf("regression.revert_failures = %d", got)
	}
	// The outage clears; the regression is still flagged next window and the
	// re-attempted revert lands.
	failpoint.Activate(nil)
	dropped := NewDetector(0.5).Revert(db, regressionFor(ix))
	if len(dropped) != 1 {
		t.Fatalf("re-attempt dropped = %v", dropped)
	}
	if db.Schema.Index(ix.Name) != nil {
		t.Fatal("index survived the re-attempted revert")
	}
}

// TestRevertDeduplicatesSuspects: the same suspect flagged by two
// regressions is dropped exactly once.
func TestRevertDeduplicatesSuspects(t *testing.T) {
	db := fixture(t)
	ix := suspectIndex(t, db)
	regs := append(regressionFor(ix), regressionFor(ix)...)
	if dropped := NewDetector(0.5).Revert(db, regs); len(dropped) != 1 {
		t.Fatalf("dropped = %v", dropped)
	}
}

// TestObserveDroppedWindowKeepsBaselines: an injected observe outage drops
// the window wholesale; the next healthy window is still compared against
// the pre-outage baseline, so the regression is detected one window late
// instead of never.
func TestObserveDroppedWindowKeepsBaselines(t *testing.T) {
	db := fixture(t)
	reg := obs.NewRegistry()
	db.SetObs(reg)
	d := NewDetector(0.5)
	d.Observe(db, window(t, db, 0.001, 10))

	arm(t, "regression.observe=err(1)")
	if regs := d.Observe(db, window(t, db, 0.01, 10)); regs != nil {
		t.Fatalf("dropped window produced regressions: %v", regs)
	}
	if got := reg.Counter("regression.dropped_windows").Value(); got != 1 {
		t.Errorf("regression.dropped_windows = %d", got)
	}

	failpoint.Activate(nil)
	regs := d.Observe(db, window(t, db, 0.01, 10))
	if len(regs) != 1 {
		t.Fatalf("regression lost across dropped window: %v", regs)
	}
	if regs[0].BeforeCPU > 0.002 {
		t.Errorf("baseline corrupted: before = %v (want the pre-outage ~0.001)", regs[0].BeforeCPU)
	}
}
