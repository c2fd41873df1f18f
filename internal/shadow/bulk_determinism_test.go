package shadow

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/exec"
	"aim/internal/obs"
	"aim/internal/storage"
	"aim/internal/workload"
)

// renderReport serializes a validation verdict at full float precision so
// runs can be compared byte-for-byte.
func renderReport(rep *Report) string {
	hex := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "accepted=%v degraded=%v code=%s reason=%s gain=%s replay_errors=%q\n",
		rep.Accepted, rep.Degraded, rep.Code, rep.Reason, hex(rep.TotalGain), rep.ReplayErrors)
	for _, o := range rep.Outcomes {
		fmt.Fprintf(&b, "%s exec=%d replays=%d before=%s after=%s\n",
			o.Normalized, o.Executions, o.Replays, hex(o.BeforeCPU), hex(o.AfterCPU))
	}
	return b.String()
}

// TestValidateDeterministicAcrossWorkersAndObs pins the determinism
// guarantee of the bulk clone/build substrate at the gate level: the full
// shadow verdict — every outcome, at bit-exact float precision — must be
// byte-identical whether clone trees are copied by one worker or eight,
// and with storage/engine instrumentation on or off.
func TestValidateDeterministicAcrossWorkersAndObs(t *testing.T) {
	run := func(workers int, withObs bool) string {
		db, mon := fixture(t)
		// Mix DML into the replayed workload so index maintenance costs are
		// part of the verdict.
		for i := 0; i < 25; i++ {
			sql := fmt.Sprintf("UPDATE t SET a = a + 1 WHERE id = %d", i)
			res, err := db.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			mon.Ingest(res.Template, sql, res.Stats)
		}
		db.Store.Workers = workers
		if withObs {
			reg := obs.NewRegistry()
			db.SetObs(reg)
			storage.Instrument(reg)
			defer storage.Instrument(nil)
		}
		idx := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, Hypothetical: true}
		rep, err := Validate(db, []*catalog.Index{idx}, mon, DefaultGate())
		if err != nil {
			t.Fatal(err)
		}
		return renderReport(rep)
	}
	want := run(1, false)
	if !strings.Contains(want, "accepted=true") {
		t.Fatalf("reference run rejected:\n%s", want)
	}
	for _, workers := range []int{0, 2, 8} {
		if got := run(workers, false); got != want {
			t.Errorf("workers=%d diverged\n--- want ---\n%s--- got ---\n%s", workers, want, got)
		}
	}
	for _, workers := range []int{1, 8} {
		if got := run(workers, true); got != want {
			t.Errorf("instrumented workers=%d diverged\n--- want ---\n%s--- got ---\n%s", workers, want, got)
		}
	}
}

// TestDivergenceRebuildByteIdenticalVerdicts forces the one-sided DML
// divergence path on a pair cloned from the frozen snapshots exactly as
// Validate clones it, and asserts the validation fails closed — a degraded
// [unreplayable_queries] verdict naming the diverging write, with the read
// evidence beside it — byte-identical at any worker count and with
// instrumentation on or off.
func TestDivergenceRebuildByteIdenticalVerdicts(t *testing.T) {
	const write = "INSERT INTO t VALUES (99999, 1, 1, 'w')"
	run := func(workers int, withObs bool) string {
		db, mon := fixture(t)
		db.Store.Workers = workers
		if withObs {
			reg := obs.NewRegistry()
			db.SetObs(reg)
			storage.Instrument(reg)
			defer storage.Instrument(nil)
		}
		cand := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, Hypothetical: true}
		var f frozen
		if err := f.take(db, []*catalog.Index{cand}); err != nil {
			t.Fatal(err)
		}
		baseline, test := f.pair()
		defer release(f.base, f.built, baseline, test)

		// Half-apply a write: land it on the baseline only, exactly the state
		// an aborted replay leaves behind. Its replay then fails on the
		// baseline and succeeds on the test clone.
		baseline.MustExec(write)
		if err := mon.RecordStmt(mustParse(t, write), exec.Stats{RowsWritten: 1}); err != nil {
			t.Fatal(err)
		}
		var dml *workload.QueryStats
		for _, q := range mon.Queries() {
			if q.IsDML() {
				dml = q
			}
		}
		if _, _, _, err := replayQuery(baseline.Clone("b"), test.Clone("t"), dml, 3, new(skips)); !errors.Is(err, errDiverged) {
			t.Fatalf("half-applied write returned %v, want errDiverged", err)
		}
		rep := judge(baseline, test, mon, DefaultGate(), new(skips))
		if rep.Accepted || !rep.Degraded || rep.Code != CodeUnreplayable ||
			len(rep.ReplayErrors) != 1 || rep.ReplayErrors[0] != dml.Normalized || len(rep.Outcomes) == 0 {
			t.Fatalf("verdict on a diverged pair:\n%s", renderReport(rep))
		}
		return renderReport(rep)
	}
	want := run(1, false)
	for _, workers := range []int{2, 8} {
		if got := run(workers, false); got != want {
			t.Errorf("workers=%d diverged\n--- want ---\n%s--- got ---\n%s", workers, want, got)
		}
	}
	if got := run(8, true); got != want {
		t.Errorf("instrumented run diverged\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
