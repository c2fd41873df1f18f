package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"aim/internal/scenarios"
	"aim/internal/telemetry"
)

// serveSuiteOptions picks the run size: the fleet profile's reduced length
// across workers {1,2,4} when AIM_SERVE_SUITE=1 (the CI "servesuite" job via
// `make servesuite`), a shorter run and sweep otherwise so the tier-1 `go
// test` stays fast. AIM_SERVE_SOAK=1 grows the run into the nightly soak (the
// profile's full length), and AIM_SERVE_JOURNAL and AIM_SERVE_METRICS name
// the decision-journal and per-round metrics artifacts it leaves behind.
func serveSuiteOptions(t *testing.T) ServeSuiteOptions {
	opts := DefaultServeSuiteOptions()
	switch {
	case os.Getenv("AIM_SERVE_SOAK") == "1":
		opts.Rounds = scenarios.NewFleet().Profile().Cycles
	case os.Getenv("AIM_SERVE_SUITE") != "1":
		opts.Rounds = 3
		opts.Parallelism = []int{1, 2}
		if testing.Short() {
			opts.Rounds = 2
			opts.Parallelism = []int{2}
		}
	}
	opts.JournalPath = os.Getenv("AIM_SERVE_JOURNAL")
	opts.MetricsPath = os.Getenv("AIM_SERVE_METRICS")
	return opts
}

// TestServeSuite boots a real aimd server on loopback for every advisor
// worker count in the sweep, drives the fleet scenario's sixteen concurrent
// sessions over TCP with a tuning cycle at each round barrier, and asserts
// the live-path acceptance invariants:
//
//   - the fleet completes with zero statement errors and the server drains
//     cleanly (no forced connections, connections_open back to 0, no
//     buffered statements left behind);
//   - the adopted index set and the per-round verdict lines are
//     byte-identical across worker counts AND to the offline run of the same
//     scenario and seed through the same loop and tuner;
//   - the normalized decision journals are identical across worker counts;
//   - every adoption closes a complete audit lineage (candidate → selected
//     rank → accepting shadow verdict → adopt): zero ungated adoptions;
//   - the metrics artifact holds one "# round N" exposition per round, each
//     parseable, with server_frames non-decreasing and positive at the end.
func TestServeSuite(t *testing.T) {
	opts := serveSuiteOptions(t)
	res, err := RunServeSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(opts.Parallelism) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), len(opts.Parallelism))
	}
	t.Logf("reference index set: %v", res.Reference.FinalIndexKeys)
	for _, run := range res.Runs {
		t.Logf("workers=%d stmts=%d rows=%d adoptions=%d traced=%d reverted=%d drain=%.3fs journal=%d records",
			run.Workers, run.Statements, run.Rows, run.Adoptions, run.TracedAdoptions, run.Reverted, run.DrainSeconds, len(run.Journal))
		if run.Adoptions == 0 {
			t.Errorf("workers=%d: live run adopted nothing", run.Workers)
		}
		if run.TracedAdoptions == 0 {
			t.Errorf("workers=%d: no adoption lineage resolved to traced statement IDs", run.Workers)
		}
		checkRoundMetrics(t, run.Workers, string(run.Metrics), res.Reference.Cycles)
	}
	// RunServeSuite already failed hard on any divergence; spot-check the
	// cross-run verdict equality here too so a future refactor of the
	// harness cannot silently drop the assertion.
	for i := 1; i < len(res.Runs); i++ {
		if !slices.Equal(res.Runs[i].Verdicts, res.Runs[0].Verdicts) {
			t.Errorf("verdicts diverge between workers=%d and workers=%d", res.Runs[0].Workers, res.Runs[i].Workers)
		}
	}
}

// checkRoundMetrics checks a live run's metrics artifact: one "# round N"
// block per round in order, each a valid exposition, and a server_frames
// counter that never falls between blocks and ends positive.
func checkRoundMetrics(t *testing.T, workers int, metrics string, rounds int) {
	t.Helper()
	blocks := strings.Split(metrics, "# round ")[1:]
	if len(blocks) != rounds || !strings.HasPrefix(metrics, "# round 0\n") {
		t.Errorf("workers=%d: %d round blocks, want %d", workers, len(blocks), rounds)
		return
	}
	var frames int64
	for i, b := range blocks {
		body, ok := strings.CutPrefix(b, fmt.Sprintf("%d\n", i))
		snap, err := telemetry.ParsePrometheus(strings.NewReader(body))
		if !ok || err != nil {
			t.Errorf("workers=%d: round block %d: header %q, parse error %v", workers, i, strings.SplitN(b, "\n", 2)[0], err)
			return
		}
		if got := snap.Counters["server_frames"]; got < frames {
			t.Errorf("workers=%d: server_frames fell from %d to %d at round %d", workers, frames, got, i)
		} else {
			frames = got
		}
	}
	if frames <= 0 {
		t.Errorf("workers=%d: server_frames = %d after the last round", workers, frames)
	}
}
