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
	fmt.Fprintf(&b, "accepted=%v reason=%s gain=%s divergent=%v\n",
		rep.Accepted, rep.Reason, hex(rep.TotalGain), rep.Divergent)
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
			mon.Record(sql, res.Stats)
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
// divergence path, replaces the clone pair exactly as Validate does (two
// fresh clones of the frozen snapshots — no gate, no second build), and
// asserts the new pair produces byte-identical replay verdicts at any worker
// count and with instrumentation on or off.
func TestDivergenceRebuildByteIdenticalVerdicts(t *testing.T) {
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
		defer release(f.base, f.built)
		makeClones := f.pair
		baseline, test := makeClones()

		// Half-apply a write: land it on the baseline only, exactly the state
		// an aborted replay leaves behind. The next replay of that statement
		// fails on the baseline, succeeds on the test clone — a one-sided DML
		// error that must be reported as divergence.
		baseline.MustExec("INSERT INTO t VALUES (99999, 1, 1, 'w')")
		dmlMon := workload.NewMonitor()
		if err := dmlMon.Record("INSERT INTO t VALUES (99999, 1, 1, 'w')", exec.Stats{RowsWritten: 1}); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := replayQuery(baseline, test, dmlMon.Queries()[0], 3, new(skips)); !errors.Is(err, errDiverged) {
			t.Fatalf("half-applied write returned %v, want errDiverged", err)
		}

		// Replace the pair and replay the read workload.
		baseline, test = makeClones()
		hex := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
		var b strings.Builder
		for _, q := range mon.Queries() {
			before, after, replays, err := replayQuery(baseline, test, q, 3, new(skips))
			fmt.Fprintf(&b, "%s replays=%d before=%s after=%s err=%v\n",
				q.Normalized, replays, hex(before), hex(after), err != nil)
		}
		// The rebuilt baseline must not contain the half-applied row.
		if res := baseline.MustExec("SELECT a FROM t WHERE id = 99999"); len(res.Rows) != 0 {
			t.Fatal("rebuilt baseline kept the diverged write")
		}
		return b.String()
	}
	want := run(1, false)
	if want == "" {
		t.Fatal("no verdicts rendered")
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers, false); got != want {
			t.Errorf("workers=%d diverged\n--- want ---\n%s--- got ---\n%s", workers, want, got)
		}
	}
	if got := run(8, true); got != want {
		t.Errorf("instrumented run diverged\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
