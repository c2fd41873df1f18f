package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/scenarios"
)

// faultRates are the per-site fault probabilities the matrix sweeps, and
// faultDrain the fault-free cycles that end every faulted run (half of a run
// shorter than twice that): within them the loop must converge to the
// fault-free run's index set.
var faultRates = []float64{0.01, 0.05, 0.2}

const faultDrain = 8

// faultSpec arms every continuous-tuning failpoint at rate p. Error
// actions hit each fallible phase; the shadow clone additionally panics at
// p/10 (validation must degrade, not die); replay and pool tasks jitter
// with short delays to shake out timing assumptions. Hit-count actions make
// every site fire at every rate and aim at the recovery paths: a run's first
// index drop fails (the revert retries it); create_index evaluations 2-4
// fail, every attempt of one build, which in migration, drift and codepush
// is the first adoption's (it must roll back whole) and elsewhere a shadow
// clone's (validation retries on a fresh clone); the third shadow clone
// panics and the third store clone is refused once. The first validation is
// left alone: diurnal's fault-free index set hinges on the adoption it
// licenses.
func faultSpec(p float64) string {
	entries := []string{
		fmt.Sprintf("storage.clone=err(%g)|err()@3", p),
		fmt.Sprintf("shadow.clone=err(%g)|panic(%g)|panic()@3", p, p/10),
		fmt.Sprintf("replay.query=err(%g)|delay(200us,%g)", p, p),
		fmt.Sprintf("engine.create_index=err(%g)|err()@2-4", p),
		fmt.Sprintf("engine.drop_index=err(%g)|err()@1", p),
		fmt.Sprintf("regression.observe=err(%g)", p),
		fmt.Sprintf("pool.task=delay(50us,%g)", p),
	}
	return strings.Join(entries, ";")
}

// faultBoundExemptions names, per scenario@rate, the one profile bound a
// faulted run is measured to miss, by the prefix of its Violations message;
// DESIGN.md ("Fail closed") gives the measured reason. Only flashcrowd's
// post-crowd retirement misses, at 20 %: when every validation of the crowd's
// last windows degrades, the crowd index is never adopted, so there is
// nothing to retire.
var faultBoundExemptions = map[string]string{
	"flashcrowd@0.2": "no revert at or after trap cycle",
}

// faulted is a scenario run with fp armed from its first cycle up to cycle
// disarm. The scenario's Advance arms and disarms the process-wide registry,
// so the fault axis rides both transports with no option of its own. It also
// builds indexes one at a time (builds are byte-identical at any worker
// count), so each hit of engine.create_index is the same build attempt at
// any GOMAXPROCS.
type faulted struct {
	scenarios.Scenario
	fp     *failpoint.Registry
	disarm int // the first fault-free cycle, > 0
	// snapshots is storage.snapshots_live when the faults were armed.
	snapshots int64
}

func (f *faulted) Advance(db *engine.DB, cycle int, r *rand.Rand) error {
	switch cycle {
	case 0:
		f.snapshots = db.ObsRegistry().Gauge("storage.snapshots_live").Value()
		db.Store.Workers = 1
		failpoint.Activate(f.fp)
	case f.disarm:
		failpoint.Activate(nil)
	}
	return f.Scenario.Advance(db, cycle, r)
}

// runFaulted runs scenario name for cycles cycles through run with the
// faults of rate armed (seed fixes their schedule) and checks what no fault
// may break beyond the loop's own per-cycle checks (the catalog/store
// invariants, the degraded-verdict latch): a complete gate lineage for every
// adoption, the profile's stability bounds, no shadow snapshot left live, and
// the fault-free run's final index set ref once the drain is over.
func runFaulted(t *testing.T, run func(scenarios.Scenario, ScenarioOptions) (*ScenarioResult, error),
	name string, cycles int, rate float64, seed int64, ref []string) (*ScenarioResult, *failpoint.Registry) {
	t.Helper()
	fp, err := failpoint.Parse(faultSpec(rate), seed)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := scenarios.ByName(name)
	f := &faulted{Scenario: sc, fp: fp, disarm: cycles - min(faultDrain, cycles/2)}
	reg := obs.NewRegistry()
	failpoint.Instrument(reg)
	defer failpoint.Instrument(nil)
	defer failpoint.Activate(nil) // a failed run stops before the drain
	res, records, err := runJournaled(run, f, ScenarioOptions{Cycles: cycles, Seed: 1, Obs: reg})
	if err != nil {
		t.Fatalf("rate %g: %v", rate, err)
	}
	if _, err := auditAdoptions(records); err != nil {
		t.Errorf("rate %g: %v", rate, err)
	}
	for _, v := range res.Violations(sc.Profile()) {
		if exempt := faultBoundExemptions[fmt.Sprintf("%s@%g", name, rate)]; exempt != "" && strings.HasPrefix(v, exempt) {
			t.Logf("rate %g: documented bound miss (DESIGN.md, Fail closed): %s", rate, v)
			continue
		}
		t.Errorf("rate %g: stability bound violated: %s", rate, v)
	}
	if got := reg.Gauge("storage.snapshots_live").Value(); got != f.snapshots {
		t.Errorf("rate %g: storage.snapshots_live = %d after the run, %d when the faults were armed", rate, got, f.snapshots)
	}
	if !slices.Equal(res.FinalIndexKeys, ref) {
		t.Errorf("rate %g: final index set %v diverged from the fault-free run's %v", rate, res.FinalIndexKeys, ref)
	}
	if got, want := reg.Counter("faults.injected").Value(), injectedTotal(fp); got != want {
		t.Errorf("rate %g: faults.injected = %d, the registry fired %d", rate, got, want)
	}
	return res, fp
}

// TestScenariosUnderFaults runs every scenario with every loop failpoint
// armed at 1, 5 and 20 % and then drained: faults are an axis of the
// scenario suite. Each run must keep every guarantee of runFaulted. Plain
// `go test` runs the offline matrix at the reduced lengths;
// AIM_SCENARIO_SUITE=1 (`make faultsuite`) runs it at full length, where
// every armed site must fire at every rate, and adds the live matrix at the
// reduced lengths, which must equal the offline one (diverges) and fire the
// same faults.
func TestScenariosUnderFaults(t *testing.T) {
	if failpoint.Enabled() {
		t.Fatal("failpoints already active; refusing to run the matrix on top")
	}
	full := os.Getenv("AIM_SCENARIO_SUITE") == "1"
	injected := make([]map[string]int64, len(faultRates)) // per rate, per site
	for i := range injected {
		injected[i] = map[string]int64{}
	}
	all, ran := scenarios.All(), 0
	for _, sc := range all {
		name := sc.Name()
		t.Run(name, func(t *testing.T) {
			ran++
			p := sc.Profile()
			lengths := []int{p.ReducedCycles}
			if full {
				lengths = []int{p.Cycles, p.ReducedCycles}
			}
			for _, cycles := range lengths {
				sc, _ := scenarios.ByName(name)
				ref, err := RunScenario(sc, ScenarioOptions{Cycles: cycles, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				for i, rate := range faultRates {
					seed := 23 + int64(i)
					res, fp := runFaulted(t, RunScenario, name, cycles, rate, seed, ref.FinalIndexKeys)
					t.Logf("%s cycles=%d rate=%.2f faults=%d adoptions=%d degraded=%d reverted=%d",
						name, cycles, rate, injectedTotal(fp), res.Adoptions, res.DegradedValidations, res.Reverted)
					for _, s := range fp.Sites() {
						injected[i][s.Name] += s.Injected
					}
					if !full || cycles != p.ReducedCycles {
						continue
					}
					live, lfp := runFaulted(t, RunScenarioLive, name, cycles, rate, seed, ref.FinalIndexKeys)
					if err := live.diverges(res); err != nil {
						t.Errorf("rate %g: %v", rate, err)
					}
					if got, want := lfp.Sites(), fp.Sites(); !slices.Equal(got, want) {
						t.Errorf("rate %g: live sites %+v, offline %+v", rate, got, want)
					}
				}
			}
		})
	}
	// At the reduced lengths regression.observe never fires at 1 %; a -run
	// filter leaves the matrix incomplete.
	if !full || ran < len(all) {
		return
	}
	for i, rate := range faultRates {
		for _, s := range strings.Split(faultSpec(rate), ";") {
			site, _, _ := strings.Cut(s, "=")
			if injected[i][site] == 0 {
				t.Errorf("rate %g: site %s never fired across the matrix", rate, site)
			}
		}
	}
}

// injectedTotal sums the faults fp's sites fired.
func injectedTotal(fp *failpoint.Registry) (n int64) {
	for _, s := range fp.Sites() {
		n += s.Injected
	}
	return n
}
