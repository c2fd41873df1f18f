package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/scenarios"
	"aim/internal/server"
	"aim/internal/shadow"
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

	// Verdicts is each cycle's verdict line; Statements and Rows count the
	// statements that executed and the rows they returned; Journal is the
	// normalized decision journal (ts_us and span_id zeroed: both depend on
	// wall clock or allocation order, not on decisions), set when a test runs
	// the scenario with a journal. Not rendered; a live run must reproduce
	// the offline run's.
	Verdicts         []string
	Statements, Rows int64
	Journal          []string
	// Accepted is the shadow report of each cycle whose gate accepted (nil
	// elsewhere) and WindowCPU each cycle's modelled window CPU (offline only:
	// the wire carries no execution statistics); both are indexed by cycle.
	// Metrics is a live run's registry after each cycle: a "# round N" line
	// and the /metricsz exposition per cycle. None is rendered.
	Accepted  []*shadow.Report
	WindowCPU []float64
	Metrics   []byte
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

// RunScenario drives one scenario offline under the profile's loop policy.
// Every cycle holds the loop's invariants, with or without faults armed: the
// tuner latches on an accepted-but-degraded shadow verdict (it would be an
// ungated adoption), and the catalog/store cross-check runs after the cycle.
func RunScenario(sc scenarios.Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return runScenario(sc, opts, false)
}

// RunScenarioLive is RunScenario over TCP: the same loop on its live
// transport (a real server on loopback, the profile's sessions as concurrent
// connections, the tuner taking the statement gate). Its result must equal
// the offline one; a statement error, a dirty drain or any other failed
// live-transport check (Loop.Close) is an error.
func RunScenarioLive(sc scenarios.Scenario, opts ScenarioOptions) (*ScenarioResult, error) {
	return runScenario(sc, opts, true)
}

func runScenario(sc scenarios.Scenario, opts ScenarioOptions, live bool) (*ScenarioResult, error) {
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
	cfg.Parallelism = opts.Parallelism

	det := regression.NewDetector(0.5)
	det.ConfirmWindows, det.AnchorWindows, det.RevertCooldown = p.ConfirmWindows, p.AnchorWindows, p.RevertCooldown
	var loop *Loop
	if live {
		if loop, err = NewLiveLoop(db, cfg, det, r, p.Sessions); err != nil {
			return nil, err
		}
	} else {
		loop = NewLoop(db, cfg, det, r)
		loop.Clients = p.Sessions
	}
	loop.Sample, loop.Advance = sc.Statement, sc.Advance
	t := loop.Tuner
	t.MaintenanceGuard, t.ApplyDrops, t.DropAfterUnused = p.MaintenanceGuard, p.ApplyDrops, p.DropAfterUnused
	var outs []server.Outcome
	t.OnCycle = func(o server.Outcome) { outs = append(outs, o) }
	err = loop.Run(cycles, p.WindowStatements)
	if closeErr := loop.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %v", sc.Name(), err)
	}
	res := &ScenarioResult{
		Name:                sc.Name(),
		Cycles:              cycles,
		Adoptions:           t.Adoptions,
		ApplyFailures:       t.ApplyFailures,
		DegradedValidations: t.DegradedValidations,
		Reverted:            t.Reverted,
		FinalIndexKeys:      automationIndexKeys(t.DB),
		Verdicts:            loop.Verdicts,
		Statements:          loop.Statements,
		Rows:                loop.Rows,
		WindowCPU:           loop.WindowCPU,
		Metrics:             loop.metrics.Bytes(),
	}
	res.account(outs, p.TrapCycle)
	return res, nil
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

// transition is one adopt or revert of an index key in a 1-based window.
type transition struct {
	window int
	revert bool
}

// account derives the stability accounting from the per-cycle outcomes:
// cycle c is window c+1, and within a cycle the adoptions come before the
// reverts (retirements, then the detector's), the order the cycle made them.
// A flip is a re-adoption after a revert; the revert latency is the gap in
// windows from the adopt that preceded a revert.
func (res *ScenarioResult) account(outs []server.Outcome, trapCycle int) {
	history := map[string][]transition{}
	res.Accepted = make([]*shadow.Report, res.Cycles)
	for _, o := range outs {
		for _, k := range o.Adopted {
			history[k] = append(history[k], transition{window: o.Cycle + 1})
		}
		for _, k := range o.Reverted {
			history[k] = append(history[k], transition{window: o.Cycle + 1, revert: true})
		}
		if o.Report != nil && o.Report.Accepted {
			res.Accepted[o.Cycle] = o.Report
		}
	}
	keys := make([]string, 0, len(history))
	for k := range history {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var tr strings.Builder
	for _, k := range keys {
		tr.WriteString(k)
		flips, lastAdopt, reverted, adoptedThenReverted := 0, 0, false, false
		for _, t := range history[k] {
			if !t.revert {
				fmt.Fprintf(&tr, " adopt@%d", t.window)
				if reverted {
					flips++
				}
				lastAdopt = t.window
				continue
			}
			fmt.Fprintf(&tr, " revert@%d", t.window)
			reverted = true
			if lastAdopt > 0 {
				adoptedThenReverted = true
				res.MaxRevertLatency = max(res.MaxRevertLatency, t.window-lastAdopt)
			}
			if t.window > trapCycle && (res.FirstRevertAfterTrap == 0 || t.window < res.FirstRevertAfterTrap) {
				res.FirstRevertAfterTrap = t.window
			}
		}
		tr.WriteByte('\n')
		if adoptedThenReverted {
			res.AdoptedThenReverted = append(res.AdoptedThenReverted, k)
		}
		if flips > res.MaxFlips {
			res.MaxFlipsKey, res.MaxFlips = k, flips
		}
	}
	res.Transitions = tr.String()
}
