package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/scenarios"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/workload"
	"aim/internal/workloads/products"
)

// verifyRecorded has the shadow gate replay every baseline it takes from the
// record as well and returns how many it checked and the mismatches.
func verifyRecorded(t *testing.T) func() (int, []string) {
	var mu sync.Mutex
	checked, bad := 0, []string(nil)
	shadow.VerifyRecorded = func(q *workload.QueryStats, recorded exec.Stats, replay func() (*engine.Result, error)) {
		res, err := replay()
		mu.Lock()
		defer mu.Unlock()
		checked++
		if err != nil || recorded != res.Stats {
			bad = append(bad, fmt.Sprintf("%s: recorded %+v, replayed %+v (%v)", q.Normalized, recorded, res, err))
		}
	}
	t.Cleanup(func() { shadow.VerifyRecorded = nil })
	return func() (int, []string) {
		mu.Lock()
		defer mu.Unlock()
		return checked, append([]string(nil), bad...)
	}
}

// recordedShare is the share of compared samples whose baseline came from
// the record, and the two counts.
func recordedShare(reg *obs.Registry) (float64, int64, int64) {
	rec, rep := reg.Counter("shadow.baseline_recorded").Value(), reg.Counter("shadow.baseline_replayed").Value()
	if rec+rep == 0 {
		return 0, 0, 0
	}
	return float64(rec) / float64(rec+rep), rec, rep
}

// TestRecordedBaselineIsTheReplay holds the shadow gate's recorded baselines
// to the replays they stand for: over the seven scenarios, fault-free, offline
// and live, every sample whose baseline the gate took from the record is
// replayed on the baseline clone too and must report the very same Stats.
func TestRecordedBaselineIsTheReplay(t *testing.T) {
	result := verifyRecorded(t)
	for _, sc := range scenarios.All() {
		for _, run := range []struct {
			name string
			fn   func(scenarios.Scenario, ScenarioOptions) (*ScenarioResult, error)
		}{{"offline", RunScenario}, {"live", RunScenarioLive}} {
			t.Run(sc.Name()+"/"+run.name, func(t *testing.T) {
				fresh, _ := scenarios.ByName(sc.Name())
				reg := obs.NewRegistry()
				if _, err := run.fn(fresh, ScenarioOptions{Cycles: scenarioCycles(sc.Profile()), Seed: 1, Obs: reg}); err != nil {
					t.Fatal(err)
				}
				share, rec, rep := recordedShare(reg)
				t.Logf("baseline recorded %d, replayed %d (%.1f %% recorded)", rec, rep, 100*share)
			})
		}
	}
	checked, bad := result()
	if checked == 0 {
		t.Fatal("no sample took its baseline from the record")
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestRecordedBaselineOnProductMix runs Product C without secondary indexes
// under the benchmark's tune_wide mix: 95 % reads of its ~190 templates and
// 5 % updates by key of the payload column c7, which no read names, spread
// over its 42 tables. Every recorded baseline must equal its replay, and
// every SELECT sample but those of Bypass templates (its IN lists, replayed
// bound to their first member) must take its baseline from the record: a
// stamp per table instead of per column would lose most of them.
func TestRecordedBaselineOnProductMix(t *testing.T) {
	result := verifyRecorded(t)
	spec, _ := products.SpecByName("C")
	p, err := products.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.DropAllSecondaryIndexes()
	reg := obs.NewRegistry()
	p.DB.SetObs(reg)
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	l := NewLoop(p.DB, cfg, regression.NewDetector(0.5), rand.New(rand.NewSource(1)))
	l.Sample = func(_ int, r *rand.Rand) string {
		if r.Intn(100) < 95 {
			return p.SampleRead(r)
		}
		return fmt.Sprintf("UPDATE t%03d SET c7 = %d WHERE id = %d", r.Intn(spec.Tables), r.Intn(10000), r.Intn(spec.RowsPerTable))
	}
	var selects, inLists int // SELECT samples compared, and those of IN-list templates
	l.Tuner.OnCycle = func(o server.Outcome) {
		if o.Report == nil {
			return
		}
		for _, out := range o.Report.Outcomes {
			if strings.HasPrefix(out.Normalized, "SELECT") {
				selects += out.Replays
				if strings.Contains(out.Normalized, " IN (") {
					inLists += out.Replays
				}
			}
		}
	}
	if err := l.Run(3, 800); err != nil {
		t.Fatal(err)
	}
	_, rec, rep := recordedShare(reg)
	t.Logf("baseline recorded %d, replayed %d: %d of %d SELECT samples recorded, %d IN-list samples replayed",
		rec, rep, rec, selects, inLists)
	checked, bad := result()
	for _, b := range bad {
		t.Error(b)
	}
	if checked == 0 || rec != int64(selects-inLists) {
		t.Errorf("%d SELECT samples outside IN-list templates took their baseline from the record, want all %d", rec, selects-inLists)
	}
}
