package shadow

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/exec"
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

func goodIndex() *catalog.Index {
	return &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, Hypothetical: true, CreatedBy: "aim"}
}

// TestValidateDegradesOnPersistentCloneFailure: when the shadow environment
// cannot be provisioned at all, validation must return a degraded verdict —
// not an error, and never an acceptance.
func TestValidateDegradesOnPersistentCloneFailure(t *testing.T) {
	db, mon := fixture(t)
	arm(t, "shadow.clone=err(1)")
	rep, err := Validate(db, []*catalog.Index{goodIndex()}, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("accepted without a validated shadow run")
	}
	if !rep.Degraded {
		t.Fatalf("verdict not degraded: %s", rep.Reason)
	}
	if !strings.Contains(rep.Reason, "clone environment unavailable") {
		t.Errorf("reason = %q", rep.Reason)
	}
	if db.Schema.Index("aim_t_a") != nil {
		t.Fatal("degraded validation leaked index into production")
	}
}

// TestValidateRetriesTransientCloneFailure: the first two clone attempts
// fail, the third succeeds — the index must still be validated and
// accepted, with no degradation.
func TestValidateRetriesTransientCloneFailure(t *testing.T) {
	db, mon := fixture(t)
	arm(t, "shadow.clone=err()@1-2")
	rep, err := Validate(db, []*catalog.Index{goodIndex()}, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("degraded despite successful retry: %s", rep.Reason)
	}
	if !rep.Accepted {
		t.Fatalf("rejected: %s", rep.Reason)
	}
}

// TestValidateDegradesOnUnreplayableQueries: when every replay fails, the
// gate has no evidence — it must fail closed with a degraded verdict
// instead of accepting on an empty outcome set.
func TestValidateDegradesOnUnreplayableQueries(t *testing.T) {
	db, mon := fixture(t)
	reg := obs.NewRegistry()
	db.SetObs(reg)
	arm(t, "replay.query=err(1)")
	rep, err := Validate(db, []*catalog.Index{goodIndex()}, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("accepted with zero replayed queries")
	}
	if !rep.Degraded {
		t.Fatalf("verdict not degraded: %s", rep.Reason)
	}
	if len(rep.ReplayErrors) == 0 {
		t.Fatal("replay errors not surfaced")
	}
	if got := reg.Counter("shadow.degraded").Value(); got != 1 {
		t.Errorf("shadow.degraded = %d", got)
	}
	if reg.Counter("shadow.replay_errors").Value() == 0 {
		t.Error("shadow.replay_errors never incremented")
	}
}

// TestValidateSurvivesClonePanic: a panic while provisioning the shadow
// environment is contained and converted into a degraded verdict.
func TestValidateSurvivesClonePanic(t *testing.T) {
	db, mon := fixture(t)
	arm(t, "shadow.clone=panic()")
	rep, err := Validate(db, []*catalog.Index{goodIndex()}, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || !rep.Degraded {
		t.Fatalf("panic not degraded: accepted=%v degraded=%v reason=%q", rep.Accepted, rep.Degraded, rep.Reason)
	}
	if !strings.Contains(rep.Reason, "panic") {
		t.Errorf("reason = %q", rep.Reason)
	}
}

// TestValidateToleratesPartialReplayErrors is the boundary between the two
// fail-closed cases: a minority of replays failing degrades the verdict as
// well — adoption decisions are only made on complete evidence.
func TestValidateToleratesPartialReplayErrors(t *testing.T) {
	db, mon := fixture(t)
	// Both replayPolicy attempts of the first query fail; the rest succeed.
	arm(t, "replay.query=err()@1-2")
	rep, err := Validate(db, []*catalog.Index{goodIndex()}, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ReplayErrors) != 1 {
		t.Fatalf("replay errors = %v", rep.ReplayErrors)
	}
	if rep.Accepted || !rep.Degraded {
		t.Fatalf("partial evidence must degrade: accepted=%v degraded=%v", rep.Accepted, rep.Degraded)
	}
}

// TestValidateCountsSkippedSamples: a sample that fails on both sides alike
// is left out of the comparison, and says so — counted in
// shadow.replay_samples_skipped with the reason on the validate span — while
// the verdict rests on the samples that did replay, as before.
func TestValidateCountsSkippedSamples(t *testing.T) {
	db, mon := fixture(t)
	reg := obs.NewRegistry()
	db.SetObs(reg)
	var trace bytes.Buffer
	reg.SetTraceWriter(&trace)
	for _, id := range []int{5, 99998} { // 5 is taken: a duplicate key on both sides
		if err := mon.RecordStmt(mustParse(t, fmt.Sprintf("INSERT INTO t VALUES (%d, 1, 1, 'x')", id)), exec.Stats{RowsWritten: 1}); err != nil {
			t.Fatal(err)
		}
	}
	gate := DefaultGate()
	gate.Lambda3 = 10 // the insert pays for the new index; not what is tested here
	rep, err := Validate(db, []*catalog.Index{goodIndex()}, mon, gate)
	if err != nil || !rep.Accepted || len(rep.ReplayErrors) != 0 {
		t.Fatalf("validation: %+v, %v", rep, err)
	}
	rep.Release()
	if got := reg.Counter("shadow.replay_samples_skipped").Value(); got != 1 {
		t.Errorf("shadow.replay_samples_skipped = %d, want 1", got)
	}
	if !strings.Contains(trace.String(), `"skipped_failed_on_both_sides":"1"`) {
		t.Errorf("validate span does not carry the reason:\n%s", trace.String())
	}
}
