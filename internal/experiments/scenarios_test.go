package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"aim/internal/audit"
	"aim/internal/obs"
	"aim/internal/scenarios"
	"aim/internal/telemetry"
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

// liveWorkers is the advisor worker axis of TestScenariosLive: {1, 2} in
// plain `go test`, one count at full length under AIM_SCENARIO_SUITE=1
// (`make scenariosuite`).
func liveWorkers() []int {
	if os.Getenv("AIM_SCENARIO_SUITE") == "1" {
		return []int{4}
	}
	return []int{1, 2}
}

// serveWorkers is the advisor worker axis of TestServeSuite: {1, 2, 4} under
// AIM_SERVE_SUITE=1 (`make servesuite` and `make servesoak`), and otherwise
// {4}, the count TestScenariosLive's fleet run leaves out of plain `go test`.
func serveWorkers() []int {
	if os.Getenv("AIM_SERVE_SUITE") == "1" {
		return []int{1, 2, 4}
	}
	return []int{4}
}

// TestScenariosLive runs every scenario where its protections matter: a real
// server on loopback, statements and OpTune over TCP, the tuning cycle and
// the scenario's Advance taking the statement gate, the profile's sessions
// connected concurrently, once per advisor worker count of liveWorkers, each
// run held to checkLiveSweep's checks.
func TestScenariosLive(t *testing.T) {
	for _, sc := range scenarios.All() {
		t.Run(sc.Name(), func(t *testing.T) { checkLiveSweep(t, sc, liveWorkers()) })
	}
}

// TestServeSuite is the live-serving acceptance check: the fleet scenario's
// sixteen concurrent sessions over TCP at every advisor worker count of
// serveWorkers, each run held to checkLiveSweep's checks. AIM_SCENARIO_SUITE=1
// runs it at the profile's full length (`make servesoak`).
func TestServeSuite(t *testing.T) {
	checkLiveSweep(t, scenarios.NewFleet(), serveWorkers())
}

// checkLiveSweep runs sc offline once and then live at each advisor worker
// count, as subtests workers=N. RunScenarioLive itself fails on a statement
// error, a dirty drain (forced connections, connections left open, buffered
// statements left behind) or a recorder that disagrees with the sessions.
// Each live run must also:
//
//   - satisfy the profile's stability bounds (every profile requires an
//     adoption);
//   - equal the offline RunScenario of the same seed in its rendering,
//     verdict lines, statement and row counts and normalized decision
//     journal, so the runs at every worker count equal each other too;
//   - close a complete audit lineage (candidate, selected rank, accepting
//     shadow verdict, adopt) for every adoption, at least one of them
//     resolving to traced statement IDs when the offline run adopted;
//   - leave one parseable "# round N" exposition per round, server_frames
//     non-decreasing and positive at the end.
//
// AIM_SERVE_JOURNAL and AIM_SERVE_METRICS name files that receive the last
// live run's normalized journal and per-round metrics (the soak artifacts).
func checkLiveSweep(t *testing.T, sc scenarios.Scenario, workerCounts []int) {
	p := sc.Profile()
	opts := ScenarioOptions{Cycles: scenarioCycles(p), Seed: 1}
	want, _, err := runJournaled(RunScenario, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			live, _ := scenarios.ByName(sc.Name())
			reg := obs.NewRegistry()
			opts := opts
			opts.Parallelism, opts.Obs = workers, reg
			got, records, err := runJournaled(RunScenarioLive, live, opts)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := auditAdoptions(records)
			if err != nil {
				t.Error(err)
			}
			t.Logf("stmts=%d rows=%d adoptions=%d traced=%d reverted=%d drain=%.3fs journal=%d records",
				got.Statements, got.Rows, got.Adoptions, traced, got.Reverted,
				reg.Histogram("server.drain_seconds").Sum(), len(got.Journal))
			for _, v := range got.Violations(p) {
				t.Errorf("stability bound violated over TCP: %s", v)
			}
			if err := got.diverges(want); err != nil {
				t.Error(err)
			}
			if want.Adoptions > 0 && traced == 0 {
				t.Errorf("adopted %d indexes but no lineage resolved to traced statements", got.Adoptions)
			}
			checkRoundMetrics(t, string(got.Metrics), got.Cycles)
			writeArtifact(t, "AIM_SERVE_JOURNAL", []byte(strings.Join(got.Journal, "\n")+"\n"))
			writeArtifact(t, "AIM_SERVE_METRICS", got.Metrics)
		})
	}
}

// writeArtifact writes data to the file the environment variable env names,
// if it names one.
func writeArtifact(t *testing.T, env string, data []byte) {
	t.Helper()
	if path := os.Getenv(env); path != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Errorf("%s: %v", env, err)
		}
	}
}

// checkRoundMetrics checks a live run's metrics: one "# round N" block per
// round in order, each a valid exposition, and a server_frames counter that
// never falls between blocks and ends positive.
func checkRoundMetrics(t *testing.T, metrics string, rounds int) {
	t.Helper()
	blocks := strings.Split(metrics, "# round ")[1:]
	if len(blocks) != rounds || !strings.HasPrefix(metrics, "# round 0\n") {
		t.Errorf("%d round blocks, want %d", len(blocks), rounds)
		return
	}
	var frames int64
	for i, b := range blocks {
		body, ok := strings.CutPrefix(b, fmt.Sprintf("%d\n", i))
		snap, err := telemetry.ParsePrometheus(strings.NewReader(body))
		if !ok || err != nil {
			t.Errorf("round block %d: header %q, parse error %v", i, strings.SplitN(b, "\n", 2)[0], err)
			return
		}
		if got := snap.Counters["server_frames"]; got < frames {
			t.Errorf("server_frames fell from %d to %d at round %d", frames, got, i)
		} else {
			frames = got
		}
	}
	if frames <= 0 {
		t.Errorf("server_frames = %d after the last round", frames)
	}
}

// runJournaled runs sc through run (RunScenario or RunScenarioLive) with a
// decision journal attached and returns the result, its Journal set, and the
// parsed records.
func runJournaled(run func(scenarios.Scenario, ScenarioOptions) (*ScenarioResult, error),
	sc scenarios.Scenario, opts ScenarioOptions) (*ScenarioResult, []*audit.Record, error) {
	var buf bytes.Buffer
	opts.Audit = audit.New(&buf)
	res, err := run(sc, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := opts.Audit.Close(); err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}
	records, err := audit.ReadRecords(&buf)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}
	res.Journal, err = normalizeJournal(records)
	return res, records, err
}

// diverges reports how a live run differs from the offline run of the same
// scenario and seed (nil: in nothing a run is compared by).
func (res *ScenarioResult) diverges(offline *ScenarioResult) error {
	switch {
	case res.Render() != offline.Render():
		return fmt.Errorf("live run diverged from the offline one:\n--- live ---\n%s--- offline ---\n%s", res.Render(), offline.Render())
	case res.Statements != offline.Statements || res.Rows != offline.Rows:
		return fmt.Errorf("live run executed %d statements returning %d rows, offline %d and %d",
			res.Statements, res.Rows, offline.Statements, offline.Rows)
	case !slices.Equal(res.Verdicts, offline.Verdicts):
		return fmt.Errorf("verdict lines diverge:\n live:    %s\n offline: %s",
			strings.Join(res.Verdicts, " | "), strings.Join(offline.Verdicts, " | "))
	case !slices.Equal(res.Journal, offline.Journal):
		return fmt.Errorf("normalized journals diverge (%d live vs %d offline records)", len(res.Journal), len(offline.Journal))
	}
	return nil
}

// auditAdoptions asserts the zero-ungated-adoptions invariant from the
// journal itself: every adopt record must close a complete lineage —
// candidate, selecting rank decision and an accepting shadow verdict, all
// before the adoption. It returns how many adopted indexes additionally
// resolved to concrete traced statement IDs via the preceding window record.
func auditAdoptions(records []*audit.Record) (int, error) {
	seen := map[string]bool{}
	traced := 0
	for _, r := range records {
		if r.Event != audit.EventAdopt || seen[r.IndexKey] {
			continue
		}
		seen[r.IndexKey] = true
		lin, err := audit.Explain(records, r.IndexKey)
		if err != nil {
			return 0, fmt.Errorf("lineage %s: %v", r.IndexKey, err)
		}
		if !lin.Complete() {
			return 0, fmt.Errorf("ungated adoption: %s has an incomplete lineage (candidates=%d ranks=%d shadows=%d)",
				r.IndexKey, len(lin.Candidates), len(lin.Ranks), len(lin.Shadows))
		}
		if len(lin.WindowStatements) > 0 && strings.HasPrefix(lin.WindowStatements[0], "t-") {
			traced++
		}
	}
	return traced, nil
}

// normalizeJournal re-renders records with wall-clock timestamps and span
// IDs zeroed: both vary run to run (span IDs are allocation-order-dependent
// under concurrency) without carrying decision content.
func normalizeJournal(records []*audit.Record) ([]string, error) {
	out := make([]string, len(records))
	for i, r := range records {
		c := *r
		c.TSUS = 0
		c.SpanID = 0
		b, err := json.Marshal(&c)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}
