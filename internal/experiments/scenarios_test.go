package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"aim/internal/audit"
	"aim/internal/obs"
	"aim/internal/scenarios"
)

// scenarioCycles picks the run length: the full acceptance profile when
// AIM_SCENARIO_SUITE=1 (the CI "scenarios" job via `make scenariosuite`),
// the reduced profile otherwise so the tier-1 `go test` stays fast.
func scenarioCycles(p scenarios.Profile) int {
	if os.Getenv("AIM_SCENARIO_SUITE") == "1" {
		return p.Cycles
	}
	return p.ReducedCycles
}

// runScenarioAudited runs one scenario with a journal attached and returns
// the result plus the parsed journal records.
func runScenarioAudited(t *testing.T, sc scenarios.Scenario, cycles int, parallelism int) (*ScenarioResult, []*audit.Record, string) {
	t.Helper()
	var jb strings.Builder
	reg := obs.NewRegistry()
	res, err := RunScenario(sc, ScenarioOptions{
		Cycles:      cycles,
		Seed:        1,
		Parallelism: parallelism,
		Obs:         reg,
		Audit:       audit.New(&jb),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadRecords(strings.NewReader(jb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return res, recs, jb.String()
}

// TestTuningLoopUnderScenarios is the adversarial acceptance suite: every
// scenario runs for hundreds of cycles at a fixed seed and must satisfy its
// profile's stability bounds — bounded adopt/revert flips per index, bounded
// time-to-revert after the trap, zero ungated adoptions (an
// accepted-but-degraded verdict aborts the run inside the loop), and a
// journaled lineage reconstructable via the aimctl explain path for every
// adopted index, including every adopted-then-reverted one.
func TestTuningLoopUnderScenarios(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			p := sc.Profile()
			res, recs, _ := runScenarioAudited(t, sc, scenarioCycles(p), 0)
			t.Logf("\n%s", res.Render())
			for _, v := range res.Violations(p) {
				t.Errorf("stability bound violated: %s", v)
			}

			// Lineage: every adoption in the journal must have the complete
			// candidate -> rank -> accepting-shadow chain before it, and every
			// adopted-then-reverted index a revert record on top.
			adopted, complete := 0, 0
			for _, ref := range audit.References(recs) {
				l, err := audit.Explain(recs, ref)
				if err != nil {
					t.Fatal(err)
				}
				if l.Adopted() {
					adopted++
					if l.Complete() {
						complete++
					} else {
						t.Errorf("adopted index %s has an incomplete lineage", ref)
					}
				}
			}
			if adopted == 0 && p.RequireAdoption {
				t.Error("journal recorded no adoptions")
			}
			journalATR := audit.AdoptedThenReverted(recs)
			for _, key := range res.AdoptedThenReverted {
				found := false
				for _, jk := range journalATR {
					if jk == key {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("the cycle outcomes show %s adopted-then-reverted but the journal lineage does not", key)
				}
				l, err := audit.Explain(recs, key)
				if err != nil {
					t.Fatal(err)
				}
				if !l.Reverted() || !l.Complete() {
					t.Errorf("adopted-then-reverted index %s: reverted=%v complete=%v, want both",
						key, l.Reverted(), l.Complete())
				}
			}
		})
	}
}

// TestScenarioWorkerDeterminism pins the determinism contract end to end:
// the same scenario and seed must produce byte-identical results —
// transition history, rendered summary and (timestamp-stripped) decision
// journal — whether the advisor's what-if pools run 1, 2 or 4 workers wide.
func TestScenarioWorkerDeterminism(t *testing.T) {
	for _, name := range []string{"drift", "writetrap", "codepush", "fleet"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var renders, journals []string
			for _, workers := range []int{1, 2, 4} {
				sc, ok := scenarios.ByName(name)
				if !ok {
					t.Fatalf("unknown scenario %q", name)
				}
				cycles := sc.Profile().ReducedCycles
				if testing.Short() {
					cycles = 12
				}
				res, _, journal := runScenarioAudited(t, sc, cycles, workers)
				renders = append(renders, res.Render())
				journals = append(journals, stripTimestamps(journal))
			}
			for i := 1; i < len(renders); i++ {
				if renders[i] != renders[0] {
					t.Errorf("result diverged between 1 and %d workers:\n--- 1 ---\n%s--- %d ---\n%s",
						1<<i, renders[0], 1<<i, renders[i])
				}
				if journals[i] != journals[0] {
					t.Errorf("journal bytes diverged between 1 and %d workers", 1<<i)
				}
			}
		})
	}
}

// TestScenarioExplainGoldenDrift pins the aimctl-explain lineage of the
// predicate-drift scenario (the repo's golden idiom: run-vs-run comparison),
// and asserts the revert record names the drifted query — the operator
// reading the journal must see *which* query's creep killed the index.
func TestScenarioExplainGoldenDrift(t *testing.T) {
	render := func() string {
		sc, _ := scenarios.ByName("drift")
		p := sc.Profile()
		res, recs, _ := runScenarioAudited(t, sc, scenarioCycles(p), 0)
		if len(res.AdoptedThenReverted) == 0 {
			t.Fatal("drift run reverted nothing; the scenario is not exercising the anchor")
		}
		var sb strings.Builder
		for _, key := range res.AdoptedThenReverted {
			l, err := audit.Explain(recs, key)
			if err != nil {
				t.Fatal(err)
			}
			l.Render(&sb, nil)
		}
		return sb.String()
	}
	out1 := render()
	if out2 := render(); out1 != out2 {
		t.Errorf("drift explain lineage differs between identical runs:\n--- run1 ---\n%s--- run2 ---\n%s", out1, out2)
	}
	for _, want := range []string{
		"status: adopted, then regression-reverted",
		"shadow       accepted [accepted]",
		"adopt        materialized as",
		"query_regressed",
		// The drifted range query, normalized, named in the revert record.
		"revert       SELECT id, val FROM metrics WHERE host = ? AND day BETWEEN ? AND ?",
	} {
		if !strings.Contains(out1, want) {
			t.Errorf("drift explain lineage missing %q:\n%s", want, out1)
		}
	}
}

// tsField matches the journal's wall-clock field — the only
// non-deterministic bytes in a seeded run.
var tsField = regexp.MustCompile(`"ts_us":\d+,?`)

// stripTimestamps removes the wall-clock field from journal bytes; the rest
// must be deterministic.
func stripTimestamps(journal string) string {
	return tsField.ReplaceAllString(journal, "")
}

// TestScenariosLive runs every scenario where its protections matter: a real
// server on loopback, statements and OpTune over TCP, the tuning cycle and
// the scenario's Advance taking the statement gate, the profile's sessions
// connected concurrently. The live run must satisfy the profile's stability
// bounds and equal the offline RunScenario of the same seed in its
// rendering, verdict lines, statement and row counts and normalized decision
// journal; RunScenarioLive itself fails on a statement error, a dirty drain
// or a recorder that disagrees with the sessions.
func TestScenariosLive(t *testing.T) {
	for _, sc := range scenarios.All() {
		t.Run(sc.Name(), func(t *testing.T) {
			p := sc.Profile()
			opts := ScenarioOptions{Cycles: scenarioCycles(p), Seed: 1}
			want, _, err := runJournaled(RunScenario, sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			live, _ := scenarios.ByName(sc.Name())
			got, _, err := runJournaled(RunScenarioLive, live, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", got.Render())
			for _, v := range got.Violations(p) {
				t.Errorf("stability bound violated over TCP: %s", v)
			}
			if err := got.diverges(want); err != nil {
				t.Error(err)
			}
		})
	}
}
