package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"aim/internal/audit"
	"aim/internal/obs"
	"aim/internal/scenarios"
)

// ServeSuiteOptions parameterizes the live-serving acceptance suite: the
// fleet scenario (scenarios.NewFleet — sixteen concurrent sessions, read
// only) run offline as the reference and then over TCP once per advisor
// worker count.
type ServeSuiteOptions struct {
	// Rounds is the number of tuned windows (0 = the profile's reduced
	// length).
	Rounds int
	// Seed fixes the fixture data and the statement stream.
	Seed int64
	// Parallelism is the advisor worker-count sweep; every setting must
	// produce byte-identical verdicts, journals and index sets.
	Parallelism []int
	// JournalPath, when set, receives the last run's normalized decision
	// journal (one JSON line per record) — the soak artifact.
	JournalPath string
	// MetricsPath, when set, receives the last run's per-round /metricsz
	// expositions (ScenarioResult.Metrics) — the flight-recorder soak
	// artifact.
	MetricsPath string
}

// DefaultServeSuiteOptions is the CI "servesuite" configuration: the fleet
// profile's reduced length, worker sweep 1/2/4.
func DefaultServeSuiteOptions() ServeSuiteOptions {
	return ServeSuiteOptions{Seed: 23, Parallelism: []int{1, 2, 4}}
}

// ServeRunResult is the outcome of one live fleet run at one worker count.
type ServeRunResult struct {
	Workers int
	*ScenarioResult
	// DrainSeconds is the observed graceful-drain wall clock.
	DrainSeconds float64
	// TracedAdoptions counts adopted indexes whose audit lineage resolved to
	// concrete traced statement IDs; a run with adoptions must have at least
	// one.
	TracedAdoptions int
}

// ServeSuiteResult aggregates the sweep plus the offline reference.
type ServeSuiteResult struct {
	// Reference is the offline run: every live run must match its index set,
	// verdict lines, statement and row counts and normalized decision journal
	// (window records included, with the trace IDs the sessions send) byte
	// for byte.
	Reference *ScenarioResult
	Runs      []ServeRunResult
}

// RunServeSuite executes the acceptance suite: offline RunScenario of the
// fleet scenario is the reference; for each worker count RunScenarioLive
// boots a real server on loopback and drives it over TCP with the recorder
// on, and the run must drain cleanly (Loop.Close) and equal the reference.
// It returns an error on the first violated invariant: a statement error, a
// dirty drain, a leftover buffered statement, an ungated adoption, an
// incomplete adoption lineage, or any divergence from the reference.
func RunServeSuite(opts ServeSuiteOptions) (*ServeSuiteResult, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = scenarios.NewFleet().Profile().ReducedCycles
	}
	if len(opts.Parallelism) == 0 {
		opts.Parallelism = []int{1}
	}
	ref, _, err := runJournaled(RunScenario, scenarios.NewFleet(),
		ScenarioOptions{Cycles: opts.Rounds, Seed: opts.Seed, Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("serve: offline reference: %v", err)
	}
	if len(ref.FinalIndexKeys) == 0 {
		return nil, fmt.Errorf("serve: offline reference adopted no indexes; fixture is not exercising the loop")
	}
	out := &ServeSuiteResult{Reference: ref}

	for _, workers := range opts.Parallelism {
		reg := obs.NewRegistry()
		live, records, err := runJournaled(RunScenarioLive, scenarios.NewFleet(),
			ScenarioOptions{Cycles: opts.Rounds, Seed: opts.Seed, Parallelism: workers, Obs: reg})
		if err == nil {
			err = live.diverges(ref)
		}
		var traced int
		if err == nil {
			traced, err = auditAdoptions(records)
		}
		if err == nil && live.Adoptions > 0 && traced == 0 {
			err = fmt.Errorf("adopted %d indexes but no lineage resolved to traced statements", live.Adoptions)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: workers=%d: %v", workers, err)
		}
		out.Runs = append(out.Runs, ServeRunResult{
			Workers:         workers,
			ScenarioResult:  live,
			DrainSeconds:    reg.Histogram("server.drain_seconds").Sum(),
			TracedAdoptions: traced,
		})
	}

	last := out.Runs[len(out.Runs)-1]
	if opts.JournalPath != "" {
		data := strings.Join(last.Journal, "\n") + "\n"
		if err := os.WriteFile(opts.JournalPath, []byte(data), 0o644); err != nil {
			return nil, fmt.Errorf("serve: journal artifact: %v", err)
		}
	}
	if opts.MetricsPath != "" {
		if err := os.WriteFile(opts.MetricsPath, last.Metrics, 0o644); err != nil {
			return nil, fmt.Errorf("serve: metrics artifact: %v", err)
		}
	}
	return out, nil
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
