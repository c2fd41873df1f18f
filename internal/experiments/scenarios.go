package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/scenarios"
	"aim/internal/shadow"
	"aim/internal/tuning"
)

// ScenarioOptions parameterizes one adversarial-scenario run.
type ScenarioOptions struct {
	// Cycles overrides the scenario profile's full cycle count (0 = profile).
	Cycles int
	// Seed fixes the setup data and the statement stream.
	Seed int64
	// Parallelism bounds the advisor's what-if worker pools (0 = GOMAXPROCS).
	// The result must be byte-identical across values — the determinism test
	// sweeps it.
	Parallelism int
	// Obs, when non-nil, collects the loop's counters.
	Obs *obs.Registry
	// Audit, when non-nil, receives the decision journal.
	Audit *audit.Journal
}

// ScenarioResult is the outcome of one scenario run: the loop counters plus
// the stability accounting the assertions are made against.
type ScenarioResult struct {
	Name   string
	Cycles int

	Adoptions           int
	ApplyFailures       int
	DegradedValidations int
	Reverted            int

	// MaxFlipsKey/MaxFlips identify the most oscillation-prone index (a flip
	// is a re-adoption after a revert).
	MaxFlipsKey string
	MaxFlips    int
	// AdoptedThenReverted is the sorted key set whose audit lineage the
	// suite reconstructs end to end.
	AdoptedThenReverted []string
	// FirstRevertAfterTrap is the 1-based window of the earliest revert at
	// or after the profile's TrapCycle (0 = none happened).
	FirstRevertAfterTrap int
	// MaxRevertLatency is the largest adopt-to-revert gap in windows.
	MaxRevertLatency int
	// FinalIndexKeys is the automation index set at the end of the run.
	FinalIndexKeys []string
	// Transitions is the deterministic per-key adopt/revert rendering,
	// compared byte for byte across worker counts.
	Transitions string

	// WindowCPU is each cycle's modelled window CPU and Accepted the shadow
	// report of each cycle whose gate accepted (nil elsewhere); both are
	// indexed by cycle and set by RunScenario only. Neither is rendered.
	WindowCPU []float64
	Accepted  []*shadow.Report
}

// Render writes the result as a stable, worker-count-independent summary.
func (res *ScenarioResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s: %d cycles\n", res.Name, res.Cycles)
	fmt.Fprintf(&sb, "adoptions=%d apply_failures=%d degraded=%d reverted=%d\n",
		res.Adoptions, res.ApplyFailures, res.DegradedValidations, res.Reverted)
	fmt.Fprintf(&sb, "max_flips=%d (%s) first_revert_after_trap=%d max_revert_latency=%d\n",
		res.MaxFlips, res.MaxFlipsKey, res.FirstRevertAfterTrap, res.MaxRevertLatency)
	fmt.Fprintf(&sb, "final=%s\n", strings.Join(res.FinalIndexKeys, " "))
	fmt.Fprintf(&sb, "adopted_then_reverted=%s\n", strings.Join(res.AdoptedThenReverted, " "))
	sb.WriteString(res.Transitions)
	return sb.String()
}

// Violations checks the result against the profile's stability bounds and
// returns one message per violated bound (empty = scenario passed). Bounds
// that need the trap to have happened are skipped when the run was too short
// to reach it.
func (res *ScenarioResult) Violations(p scenarios.Profile) []string {
	var out []string
	if res.DegradedValidations > 0 && res.Adoptions == 0 && p.RequireAdoption {
		out = append(out, fmt.Sprintf("no adoption and %d degraded validations", res.DegradedValidations))
	} else if p.RequireAdoption && res.Adoptions == 0 {
		out = append(out, "loop never adopted an index")
	}
	if res.MaxFlips > p.MaxFlipsPerKey {
		out = append(out, fmt.Sprintf("index %s flipped %d times, bound %d",
			res.MaxFlipsKey, res.MaxFlips, p.MaxFlipsPerKey))
	}
	trapWindow := p.TrapCycle + 1 // windows are 1-based, cycles 0-based
	pastTrap := res.Cycles > p.TrapCycle
	if p.RequireRevert && pastTrap {
		if res.FirstRevertAfterTrap == 0 {
			out = append(out, fmt.Sprintf("no revert at or after trap cycle %d", p.TrapCycle))
		} else if p.RevertWithin > 0 && res.FirstRevertAfterTrap > trapWindow+p.RevertWithin {
			out = append(out, fmt.Sprintf("first revert at window %d, later than trap+%d",
				res.FirstRevertAfterTrap, p.RevertWithin))
		}
	}
	final := map[string]bool{}
	for _, k := range res.FinalIndexKeys {
		final[k] = true
	}
	// Containment bounds describe the post-trap steady state; a run cut off
	// before the trap (or before the revert deadline) has not reached it.
	settled := pastTrap && (p.RevertWithin == 0 || res.Cycles > p.TrapCycle+p.RevertWithin)
	if settled {
		for _, k := range p.FinalContains {
			if !final[k] {
				out = append(out, fmt.Sprintf("final index set %v is missing %s", res.FinalIndexKeys, k))
			}
		}
		for _, k := range p.FinalExcludes {
			if final[k] {
				out = append(out, fmt.Sprintf("final index set still contains %s", k))
			}
		}
	}
	return out
}

// RunScenario drives the continuous-tuning loop through one adversarial
// scenario under the profile's loop policy, with the same per-cycle
// invariants as the fault suite: an accepted-but-degraded shadow verdict is
// fatal (it would be an ungated adoption), and the catalog/store cross-check
// runs after every cycle.
func RunScenario(sc scenarios.Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	p := sc.Profile()
	cycles := opts.Cycles
	if cycles <= 0 {
		cycles = p.Cycles
	}
	if p.WindowStatements <= 0 {
		return nil, fmt.Errorf("scenario %s: profile has no window size", sc.Name())
	}
	r := rand.New(rand.NewSource(opts.Seed))
	db, err := sc.Setup(r)
	if err != nil {
		return nil, err
	}
	if opts.Obs != nil {
		db.SetObs(opts.Obs)
	}
	if opts.Audit != nil {
		db.SetAudit(opts.Audit)
	}
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	cfg.Parallelism = opts.Parallelism

	stab := regression.NewStability()
	if opts.Obs != nil {
		stab.SetObs(opts.Obs)
	}
	loop := &Loop{
		Cycle: tuning.Cycle{
			DB:               db,
			Adv:              core.NewAdvisor(db, cfg),
			Detector:         scenarioDetector(p),
			Gate:             shadow.DefaultGate(),
			MaintenanceGuard: p.MaintenanceGuard,
			ApplyDrops:       p.ApplyDrops,
			DropAfterUnused:  p.DropAfterUnused,
			Stab:             stab,
		},
		Sample:  sc.Statement,
		Advance: sc.Advance,
		R:       r,
	}
	accepted := make([]*shadow.Report, cycles)
	loop.OnReport = func(rep *shadow.Report) {
		if rep.Accepted {
			// RunCycle books the window's CPU before it runs the cycle.
			accepted[len(loop.WindowCPU)-1] = rep
		}
	}
	for i := 0; i < cycles; i++ {
		if err := loop.RunCycle(p.WindowStatements); err != nil {
			return nil, fmt.Errorf("scenario %s cycle %d: %v", sc.Name(), i, err)
		}
		if err := checkLoopInvariants(db); err != nil {
			return nil, fmt.Errorf("scenario %s cycle %d: %v", sc.Name(), i, err)
		}
	}
	res := scenarioResult(sc, cycles, &loop.Cycle, db)
	res.WindowCPU, res.Accepted = loop.WindowCPU, accepted
	return res, nil
}

// scenarioDetector builds the regression detector the profile's loop policy
// asks for.
func scenarioDetector(p scenarios.Profile) *regression.Detector {
	threshold := p.DetectorThreshold
	if threshold <= 0 {
		threshold = 0.5
	}
	det := regression.NewDetector(threshold)
	det.ConfirmWindows = p.ConfirmWindows
	det.AnchorWindows = p.AnchorWindows
	det.RevertCooldown = p.RevertCooldown
	return det
}

// scenarioResult summarizes a finished run from the cycle's counters, its
// stability tracker and the database's final index set.
func scenarioResult(sc scenarios.Scenario, cycles int, c *tuning.Cycle, db *engine.DB) *ScenarioResult {
	stab := c.Stab
	res := &ScenarioResult{
		Name:                sc.Name(),
		Cycles:              cycles,
		Adoptions:           c.Adoptions,
		ApplyFailures:       c.ApplyFailures,
		DegradedValidations: c.DegradedValidations,
		Reverted:            c.Reverted,
		AdoptedThenReverted: stab.AdoptedThenReverted(),
		MaxRevertLatency:    stab.MaxRevertLatency(),
		FinalIndexKeys:      automationIndexKeys(db),
	}
	res.MaxFlipsKey, res.MaxFlips = stab.MaxFlips()
	if _, w, ok := stab.FirstRevertAt(sc.Profile().TrapCycle + 1); ok {
		res.FirstRevertAfterTrap = w
	}
	var tr strings.Builder
	stab.Render(&tr)
	res.Transitions = tr.String()
	return res
}
