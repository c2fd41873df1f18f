package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/regression"
	"aim/internal/server"
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

// step is one adopt or revert of key in a 1-based window.
type step struct {
	window int
	key    string
	revert bool
}

// account folds a compact transition history into per-cycle outcomes (window
// w is cycle w-1) and derives the scenario accounting from them.
func account(cycles, trapCycle int, steps []step) *ScenarioResult {
	outs := make([]server.Outcome, cycles)
	for c := range outs {
		outs[c].Cycle = c
	}
	for _, st := range steps {
		o := &outs[st.window-1]
		if st.revert {
			o.Reverted = append(o.Reverted, st.key)
		} else {
			o.Adopted = append(o.Adopted, st.key)
		}
	}
	res := &ScenarioResult{Cycles: cycles}
	res.account(outs, trapCycle)
	return res
}

func TestStabilityCounters(t *testing.T) {
	steps := []step{
		{1, "t(a)", false},
		{1, "t(b)", false},
		{5, "t(a)", true},
		{9, "t(a)", false}, // flip: re-adoption after a revert
		{12, "t(a)", true},
		{14, "t(c)", true}, // revert with no prior adopt (e.g. pre-seeded index)
	}
	res := account(15, 5, steps)
	if res.MaxFlipsKey != "t(a)" || res.MaxFlips != 1 {
		t.Errorf("MaxFlips = %q/%d, want t(a)/1", res.MaxFlipsKey, res.MaxFlips)
	}
	// t(c) was reverted but never adopted first; t(b) never reverted.
	if got := res.AdoptedThenReverted; len(got) != 1 || got[0] != "t(a)" {
		t.Errorf("AdoptedThenReverted = %v, want [t(a)]", got)
	}
	// Latencies: adopt@1->revert@5 = 4, adopt@9->revert@12 = 3.
	if res.MaxRevertLatency != 4 {
		t.Errorf("MaxRevertLatency = %d, want 4", res.MaxRevertLatency)
	}
	// A trap at cycle 5 is window 6: the first revert from there on is t(a)'s
	// at 12 (t(c)'s at 14 is later).
	if res.FirstRevertAfterTrap != 12 {
		t.Errorf("FirstRevertAfterTrap(trap cycle 5) = %d, want 12", res.FirstRevertAfterTrap)
	}
	if got := account(15, 14, steps).FirstRevertAfterTrap; got != 0 {
		t.Errorf("FirstRevertAfterTrap past the last revert = %d, want 0", got)
	}
	want := "t(a) adopt@1 revert@5 adopt@9 revert@12\nt(b) adopt@1\nt(c) revert@14\n"
	if res.Transitions != want {
		t.Errorf("Transitions:\n%q\nwant:\n%q", res.Transitions, want)
	}
}

func TestStabilityEmpty(t *testing.T) {
	res := account(4, 0, nil)
	if res.MaxFlipsKey != "" || res.MaxFlips != 0 {
		t.Errorf("MaxFlips with no transitions = %q/%d", res.MaxFlipsKey, res.MaxFlips)
	}
	if len(res.AdoptedThenReverted) != 0 || res.FirstRevertAfterTrap != 0 || res.MaxRevertLatency != 0 || res.Transitions != "" {
		t.Errorf("accounting with no transitions = %+v", res)
	}
}

// TestAccountAdoptsBeforeReverts: a cycle that adopts and reverts the same
// key made the adoption first, whatever order its outcome lists them in.
func TestAccountAdoptsBeforeReverts(t *testing.T) {
	res := &ScenarioResult{Cycles: 1}
	res.account([]server.Outcome{{Reverted: []string{"t(a)"}, Adopted: []string{"t(a)"}}}, 0)
	if res.Transitions != "t(a) adopt@1 revert@1\n" || len(res.AdoptedThenReverted) != 1 || res.FirstRevertAfterTrap != 1 {
		t.Errorf("same-cycle adopt and revert: %+v", res)
	}
}

// TestOscillationGuardBoundsFlips is the oscillation guard end to end: an
// index that regresses the workload every time it is adopted (so the loop
// adopts, the detector reverts, the advisor re-recommends, ...) must settle
// into O(log windows) flips under the escalating revert cooldown instead of
// flipping every other window forever.
func TestOscillationGuardBoundsFlips(t *testing.T) {
	run := func(cooldown int) int {
		db := engine.New("prod")
		db.MustExec("CREATE TABLE t (id INT, a INT, b INT, PRIMARY KEY (id))")
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", i, r.Intn(50), r.Intn(50)))
		}
		db.Analyze()
		// window runs the query on the current configuration and records ten
		// executions of its plan at the given CPU: page reads dominate.
		window := func(cpu float64) *workload.Monitor {
			const sql = "SELECT b FROM t WHERE a = 5"
			res, err := db.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			mon := workload.NewMonitor()
			for i := 0; i < 10; i++ {
				st := exec.Stats{PageReads: int64(cpu / exec.CostPageRead), RowsRead: 10, RowsSent: 1}
				if _, err := mon.Ingest(res.Entry, res.Template, sql, &st, 0, res.UsedIndexes); err != nil {
					t.Fatal(err)
				}
			}
			return mon
		}
		d := regression.NewDetector(0.3)
		d.RevertCooldown = cooldown
		const windows = 200
		outs := make([]server.Outcome, windows)
		adopted := false
		var key string
		for i := range outs {
			outs[i].Cycle = i
			// The cycle's workload window ran under the configuration left by
			// the previous cycle: the adopted index "causes" a 3x regression
			// of the query that uses it.
			cpu := 0.001
			if adopted {
				cpu = 0.003
			}
			mon := window(cpu)
			// Mid-cycle the advisor re-adopts whenever the index is absent
			// and not cooling down (its estimated gain never goes away); the
			// adoption affects the next window's stream, not this one's.
			if !adopted && (key == "" || !d.InCooldown(key)) {
				ix := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, CreatedBy: "aim"}
				if _, err := db.CreateIndex(ix); err != nil {
					t.Fatal(err)
				}
				key = ix.Key()
				adopted = true
				outs[i].Adopted = []string{key}
			}
			if regs := d.Observe(db, mon); len(regs) > 0 {
				if keys := d.Revert(db, regs); len(keys) > 0 {
					adopted = false
					outs[i].Reverted = keys
				}
			}
		}
		res := &ScenarioResult{Cycles: windows}
		res.account(outs, 0)
		return res.MaxFlips
	}
	guarded := run(4)
	if guarded == 0 {
		t.Fatal("guarded loop never flipped; the scenario is not exercising re-adoption")
	}
	if guarded > 6 {
		t.Fatalf("guarded loop flipped %d times over 200 windows, want <= 6 (escalating cooldown)", guarded)
	}
	unguarded := run(0)
	if unguarded <= 2*guarded {
		t.Fatalf("unguarded control flipped only %d times (guarded %d); the guard is not load-bearing", unguarded, guarded)
	}
}
