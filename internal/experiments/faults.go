package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/regression"
)

// FaultSuiteOptions parameterizes the fault-injection study of the
// continuous-tuning loop: N tuning cycles run with every loop failpoint
// armed at a given rate, then the faults stop and the loop drains to its
// steady state.
type FaultSuiteOptions struct {
	// Cycles is the number of tuning cycles driven while faults are armed.
	Cycles int
	// DrainCycles is the number of fault-free cycles afterwards; the loop
	// must converge to the fault-free recommendation set within them.
	DrainCycles int
	// Rates are the per-site fault probabilities to sweep.
	Rates []float64
	// Seed fixes the workload stream and every failpoint PRNG.
	Seed int64
	// Rows sizes the table; WindowStatements sizes each cycle's workload.
	Rows             int
	WindowStatements int
	// Obs, when non-nil, collects the faults.* counters for the run.
	Obs *obs.Registry
}

// DefaultFaultSuiteOptions is the configuration the CI "faults" job runs:
// the acceptance sweep of 1000 cycles at rates 1%, 5% and 20%.
func DefaultFaultSuiteOptions() FaultSuiteOptions {
	return FaultSuiteOptions{
		Cycles:           1000,
		DrainCycles:      8,
		Rates:            []float64{0.01, 0.05, 0.2},
		Seed:             23,
		Rows:             1500,
		WindowStatements: 30,
	}
}

// FaultRateResult is the outcome of one fault-rate sweep.
type FaultRateResult struct {
	Rate                float64
	Cycles              int
	FaultsInjected      int64
	Adoptions           int
	ApplyFailures       int
	DegradedValidations int
	Reverted            int
	// FinalIndexKeys is the sorted catalog-key set of automation-created
	// indexes after the drain phase — compared against the reference run.
	FinalIndexKeys []string
}

// FaultSuiteResult aggregates the sweep.
type FaultSuiteResult struct {
	// ReferenceKeys is the automation index set a fault-free run converges
	// to; every rate's FinalIndexKeys must match it byte for byte.
	ReferenceKeys []string
	PerRate       []FaultRateResult
}

// faultSpec arms every continuous-tuning failpoint at rate p. Error
// actions hit each fallible phase; the shadow clone additionally panics at
// p/10 (validation must degrade, not die); replay and pool tasks jitter
// with short delays to shake out timing assumptions.
func faultSpec(p float64) string {
	entries := []string{
		fmt.Sprintf("storage.clone=err(%g)", p),
		fmt.Sprintf("shadow.clone=err(%g)|panic(%g)", p, p/10),
		fmt.Sprintf("replay.query=err(%g)|delay(200us,%g)", p, p),
		fmt.Sprintf("engine.create_index=err(%g)", p),
		fmt.Sprintf("engine.drop_index=err(%g)", p),
		fmt.Sprintf("regression.observe=err(%g)", p),
		fmt.Sprintf("costcache.lookup=err(%g)", p),
		fmt.Sprintf("pool.task=delay(50us,%g)", p),
	}
	return strings.Join(entries, ";")
}

// newTuningLoop builds the fixture: one table, a read workload whose hot
// filter column is unindexed, so the fault-free advisor converges on a
// stable one-index recommendation set. The loop runs with the default
// policy (no cooldown, no unused-drop retirement, no maintenance guard),
// which is the original fault-suite behavior.
func newTuningLoop(opts FaultSuiteOptions) *Loop {
	db := engine.New("faults")
	if opts.Obs != nil {
		db.SetObs(opts.Obs)
	}
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, score INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.Rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d)",
			i, r.Intn(150), r.Intn(8), r.Intn(1000)))
	}
	db.Analyze()
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	loop := NewLoop(db, cfg, regression.NewDetector(0.5), r)
	loop.Sample = func(_ int, r *rand.Rand) string {
		if r.Intn(4) == 0 {
			return fmt.Sprintf("SELECT id FROM events WHERE kind = %d AND score > %d", r.Intn(8), r.Intn(900))
		}
		return fmt.Sprintf("SELECT score FROM events WHERE user_id = %d", r.Intn(150))
	}
	return loop
}

// automationIndexKeys returns the sorted catalog keys of non-DBA,
// non-hypothetical indexes — the set the loop has adopted.
func automationIndexKeys(db *engine.DB) []string {
	var keys []string
	for _, ix := range db.Schema.Indexes() {
		if ix.Hypothetical || ix.CreatedBy == "dba" {
			continue
		}
		keys = append(keys, ix.Key())
	}
	sort.Strings(keys)
	return keys
}

// checkLoopInvariants cross-checks catalog against store and validates
// every index tree: a partially built or half-dropped index must never be
// visible, no matter which phase a fault interrupted. Tree.Validate also
// enforces the copy-on-write epoch invariants (node epoch <= parent epoch <=
// handle epoch <= family clock), so every per-cycle audit here doubles as a
// cross-snapshot mutation check on the stores the shadow clones came from.
func checkLoopInvariants(db *engine.DB) error {
	for _, ix := range db.Schema.Indexes() {
		if ix.Hypothetical {
			return fmt.Errorf("hypothetical index %q leaked into the schema", ix.Name)
		}
		tbl := db.Store.Table(ix.Table)
		if tbl == nil {
			return fmt.Errorf("index %q references missing table %q", ix.Name, ix.Table)
		}
		mat := tbl.Index(ix.Name)
		if mat == nil {
			return fmt.Errorf("index %q registered but not materialized", ix.Name)
		}
		if err := mat.Tree().Validate(); err != nil {
			return fmt.Errorf("index %q tree invalid: %v", ix.Name, err)
		}
		if got, want := mat.Len(), tbl.RowCount(); got != want {
			return fmt.Errorf("index %q has %d entries for %d rows (partial build leaked)", ix.Name, got, want)
		}
	}
	// No orphans: every materialized index must be in the catalog.
	for _, t := range db.Schema.Tables() {
		tbl := db.Store.Table(t.Name)
		if tbl == nil {
			continue
		}
		for name := range tbl.Indexes() {
			if db.Schema.Index(name) == nil {
				return fmt.Errorf("materialized index %q missing from catalog (partial drop leaked)", name)
			}
		}
		if err := tbl.Data().Validate(); err != nil {
			return fmt.Errorf("table %q clustered tree invalid: %v", t.Name, err)
		}
	}
	return nil
}

// RunFaultSuite executes the sweep: a fault-free reference run first, then
// one armed run per rate. It returns an error on the first violated
// invariant — a non-gated adoption, a leaked partial build, or a final
// index set that differs from the reference after the faults stop.
func RunFaultSuite(opts FaultSuiteOptions) (*FaultSuiteResult, error) {
	if opts.Cycles <= 0 || opts.DrainCycles <= 0 || opts.Rows <= 0 || opts.WindowStatements <= 0 {
		return nil, fmt.Errorf("faults: all sizes must be positive: %+v", opts)
	}
	// Reference: the recommendation set a fault-free loop converges to.
	ref := newTuningLoop(opts)
	if err := ref.Run(opts.DrainCycles, opts.WindowStatements); err != nil {
		return nil, fmt.Errorf("reference %v", err)
	}
	out := &FaultSuiteResult{ReferenceKeys: automationIndexKeys(ref.Tuner.DB)}
	if len(out.ReferenceKeys) == 0 {
		return nil, fmt.Errorf("faults: reference run adopted no indexes; fixture is not exercising the loop")
	}

	for _, rate := range opts.Rates {
		fp, err := failpoint.Parse(faultSpec(rate), opts.Seed)
		if err != nil {
			return nil, err
		}
		loop := newTuningLoop(opts)
		failpoint.Activate(fp)
		err = loop.Run(opts.Cycles, opts.WindowStatements)
		failpoint.Activate(nil)
		if err == nil {
			// Faults stop; the loop must converge to the reference set.
			err = loop.Run(opts.DrainCycles, opts.WindowStatements)
		}
		if err != nil {
			return nil, fmt.Errorf("rate %g %v", rate, err)
		}
		out.PerRate = append(out.PerRate, FaultRateResult{
			Rate:                rate,
			Cycles:              opts.Cycles,
			FaultsInjected:      fp.InjectedTotal(),
			Adoptions:           loop.Tuner.Adoptions,
			ApplyFailures:       loop.Tuner.ApplyFailures,
			DegradedValidations: loop.Tuner.DegradedValidations,
			Reverted:            loop.Tuner.Reverted,
			FinalIndexKeys:      automationIndexKeys(loop.Tuner.DB),
		})
	}
	return out, nil
}
