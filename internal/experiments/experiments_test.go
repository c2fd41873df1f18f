package experiments

import (
	"fmt"
	"math"
	"testing"

	"aim/internal/baselines"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/scenarios"
	"aim/internal/sim"
	"aim/internal/workload"
	"aim/internal/workloads/products"
)

// fastProduct is a reduced spec for CI-speed experiment tests.
func fastProduct() products.Spec {
	return products.Spec{Name: "Product T", Tables: 8, JoinQueries: 10, Type: products.Balanced,
		TargetDBA: 24, RowsPerTable: 900, Seed: 7}
}

func TestRunTable2Product(t *testing.T) {
	opts := DefaultTable2Options()
	opts.WorkloadStatements = 400
	row, err := RunTable2Product(fastProduct(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if row.DBAIndexCount == 0 || row.AIMIndexCount == 0 {
		t.Fatalf("row = %+v", row)
	}
	if row.Jaccard <= 0 || row.Jaccard > 1 {
		t.Fatalf("jaccard = %v", row.Jaccard)
	}
	if row.DBABytes <= 0 || row.AIMBytes <= 0 {
		t.Fatalf("bytes = %d / %d", row.DBABytes, row.AIMBytes)
	}
	// The paper's qualitative claim: AIM matches manual tuning with a
	// similar-or-smaller set; allow slack but catch blowups.
	if row.AIMIndexCount > row.DBAIndexCount*2 {
		t.Errorf("AIM set much larger than DBA: %d vs %d", row.AIMIndexCount, row.DBAIndexCount)
	}
}

func TestRunFig3Convergence(t *testing.T) {
	opts := DefaultFig3Options()
	opts.WarmTicks, opts.ObserveTicks, opts.RecoverTicks = 3, 4, 8
	opts.QueriesPerTick = 30
	res, err := RunFig3(fastProduct(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Control.Ticks) != len(res.Test.Ticks) {
		t.Fatal("series length mismatch")
	}
	// After the drop, the test machine must be measurably worse than in
	// its warm phase; after AIM rebuilds, it must recover.
	warm := avgCPURange(res.Test, 0, res.DropTick)
	degraded := avgCPURange(res.Test, res.DropTick, res.AIMStartTick)
	final := res.Test.AvgCPU(3)
	if degraded <= warm*1.05 {
		t.Errorf("dropping indexes did not hurt: warm=%.1f degraded=%.1f", warm, degraded)
	}
	if final >= degraded*0.95 {
		t.Errorf("AIM did not recover: degraded=%.1f final=%.1f", degraded, final)
	}
	if len(res.IndexTicks) == 0 {
		t.Error("no incremental builds recorded")
	}
	// Control stays roughly flat (its physical design never changes).
	cWarm := avgCPURange(res.Control, 0, res.DropTick)
	cEnd := res.Control.AvgCPU(3)
	if cEnd > cWarm*1.6+5 {
		t.Errorf("control drifted: %v -> %v", cWarm, cEnd)
	}
}

// avgCPURange averages CPU%% of ticks [lo, hi) in a series.
func avgCPURange(s sim.Series, lo, hi int) float64 {
	if hi > len(s.Ticks) {
		hi = len(s.Ticks)
	}
	if lo >= hi {
		return 0
	}
	sum := 0.0
	for _, t := range s.Ticks[lo:hi] {
		sum += t.CPUPercent
	}
	return sum / float64(hi-lo)
}

func TestRunFig4TPCHShape(t *testing.T) {
	opts := DefaultFig4Options("tpch")
	opts.Scale = 0.05
	opts.BudgetFractions = []float64{0.3, 1.0}
	res, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 { // 2 budgets x 3 algorithms
		t.Fatalf("points = %d", len(res.Points))
	}
	byAlgo := map[string][]Fig4Point{}
	for _, p := range res.Points {
		byAlgo[p.Algorithm] = append(byAlgo[p.Algorithm], p)
		if p.RelativeCost <= 0 || p.RelativeCost > 1.3 {
			t.Errorf("%s: relative cost %v out of range", p.Algorithm, p.RelativeCost)
		}
	}
	for algo, pts := range byAlgo {
		// All algorithms must beat the unindexed baseline at full budget.
		last := pts[len(pts)-1]
		if last.RelativeCost >= 1 {
			t.Errorf("%s: no improvement at full budget (%v)", algo, last.RelativeCost)
		}
	}
	// The runtime shape: AIM's optimizer-call count is far below DTA and
	// Extend at every budget.
	for i := range byAlgo["AIM"] {
		aim := byAlgo["AIM"][i].OptimizerCalls
		if aim*2 > byAlgo["DTA"][i].OptimizerCalls || aim*2 > byAlgo["Extend"][i].OptimizerCalls {
			t.Errorf("AIM calls (%d) not clearly below DTA (%d) / Extend (%d)",
				aim, byAlgo["DTA"][i].OptimizerCalls, byAlgo["Extend"][i].OptimizerCalls)
		}
	}
}

// planProbe wraps an advisor and records the budget and the number of
// plans (optimizer.whatif_seconds observations) of its last Recommend call.
type planProbe struct {
	baselines.Advisor
	budget, plans int64
}

func (p *planProbe) Recommend(db *engine.DB, queries []*workload.QueryStats, budget int64) (*baselines.Result, error) {
	h := db.ObsRegistry().Histogram("optimizer.whatif_seconds")
	before := h.Count()
	res, err := p.Advisor.Recommend(db, queries, budget)
	p.budget, p.plans = budget, h.Count()-before
	return res, err
}

// TestRunFig4PointsStartCold: a Fig. 4 point's runtime must not include memo
// replay of estimates computed by the algorithms before it. DTA runs first,
// then Extend — whose candidates overlap DTA's — must plan exactly as often
// as on a database nobody has costed anything on.
func TestRunFig4PointsStartCold(t *testing.T) {
	opts := DefaultFig4Options("tpch")
	opts.Scale = 0.05
	opts.BudgetFractions = []float64{0.5}
	opts.Obs = obs.NewRegistry()
	probe := &planProbe{Advisor: &baselines.Extend{MaxWidth: opts.MaxWidth}}
	opts.Algorithms = []baselines.Advisor{&baselines.DTA{MaxWidth: opts.MaxWidth}, probe}
	if _, err := RunFig4(opts); err != nil {
		t.Fatal(err)
	}
	db, queries, err := buildBenchmark(opts.Benchmark, opts.Scale, opts.Seed, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	fresh := &planProbe{Advisor: probe.Advisor}
	if _, err := fresh.Recommend(db, queries, probe.budget); err != nil {
		t.Fatal(err)
	}
	if probe.plans != fresh.plans || fresh.plans == 0 {
		t.Errorf("Extend after DTA planned %d times, on a fresh database %d times", probe.plans, fresh.plans)
	}
}

func TestRunFig4JOBShape(t *testing.T) {
	opts := DefaultFig4Options("job")
	opts.Scale = 0.05
	opts.BudgetFractions = []float64{1.0}
	res, err := RunFig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Algorithm == "AIM" && p.RelativeCost >= 1 {
			t.Errorf("AIM did not improve JOB: %v", p.RelativeCost)
		}
	}
}

func TestRunFig4UnknownBenchmark(t *testing.T) {
	opts := DefaultFig4Options("tpch")
	opts.Benchmark = "nope"
	if _, err := RunFig4(opts); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunFig5PerQueryCosts(t *testing.T) {
	opts := DefaultFig5Options()
	opts.Scale = 0.05
	opts.Algorithms = []baselines.Advisor{
		&baselines.AIM{J: 2, MaxWidth: 4, EnableCovering: true},
		&baselines.Extend{MaxWidth: 3},
	}
	rows, err := RunFig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Fatalf("rows = %d", len(rows))
	}
	affected := 0
	labels := map[string]bool{}
	for _, r := range rows {
		labels[r.Query] = true
		if r.Unindexed <= 0 {
			t.Errorf("%s: no unindexed cost", r.Query)
		}
		if len(r.Costs) != 2 {
			t.Errorf("%s: costs = %v", r.Query, r.Costs)
		}
		if r.Affected {
			affected++
		}
	}
	if affected == 0 {
		t.Error("no queries affected by indexes")
	}
	// Each row carries its TPC-H number, not its position.
	for k := 1; k <= 22; k++ {
		if !labels[fmt.Sprintf("Q%d", k)] {
			t.Errorf("no row labelled Q%d: %v", k, labels)
		}
	}
}

func TestRunFig6JoinParameter(t *testing.T) {
	opts := DefaultFig6Options()
	opts.Rows = 1500
	opts.PhaseTicks = 3
	opts.QueriesPerTick = 15
	res, err := RunFig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Shape assertions per §VI-C: AIM's final throughput beats the greedy
	// baseline, and j=2 is at least as good as j=1.
	if res.ThroughputGainOverGIA() < 0 {
		t.Errorf("AIM throughput %.1f below GIA %.1f", res.AIMFinalThroughput, res.GIAFinalThroughput)
	}
	if res.J2GainOverJ1()*res.J1Throughput < -0.5 {
		t.Errorf("j=2 (%v) worse than j=1 (%v)", res.J2Throughput, res.J1Throughput)
	}
	// Each relative gain, applied to the figure it is relative to, gives
	// back the figure it compares; with no base figure it is 0, not NaN.
	for _, g := range []struct {
		name           string
		from, to, gain float64
	}{
		{"ThroughputGainOverGIA", res.GIAFinalThroughput, res.AIMFinalThroughput, res.ThroughputGainOverGIA()},
		{"CPUReductionOverGIA", res.GIAFinalCPU, res.AIMFinalCPU, -res.CPUReductionOverGIA()},
		{"J2GainOverJ1", res.J1Throughput, res.J2Throughput, res.J2GainOverJ1()},
		{"J3GainOverJ2", res.J2Throughput, res.J3Throughput, res.J3GainOverJ2()},
	} {
		if g.from <= 0 {
			t.Errorf("%s: base figure %v, want > 0", g.name, g.from)
		} else if math.Abs(g.from*(1+g.gain)-g.to) > 1e-9*g.to {
			t.Errorf("%s = %v: %v -> %v", g.name, g.gain, g.from, g.to)
		}
	}
	var none Fig6Result
	if g := [...]float64{none.ThroughputGainOverGIA(), none.CPUReductionOverGIA(), none.J2GainOverJ1(), none.J3GainOverJ2()}; g != [4]float64{} {
		t.Errorf("gains of an empty result = %v, want 0", g)
	}
	t.Logf("gain over GIA %.4f, CPU reduction %.4f, j=2 over j=1 %.4f, j=3 over j=2 %.4f",
		res.ThroughputGainOverGIA(), res.CPUReductionOverGIA(), res.J2GainOverJ1(), res.J3GainOverJ2())
	if len(res.AIM.Ticks) != len(res.GIA.Ticks) {
		t.Error("series mismatch")
	}
	if res.JStartTicks[1] == 0 || res.JStartTicks[2] <= res.JStartTicks[1] {
		t.Error("phase markers wrong")
	}
}

// TestRunContinuousTuning is the §VI-D reading of the codepush scenario: the
// cycle that closes the shifted window proposes the fix, the gate accepts it,
// and the re-tuned windows are cheaper than the shifted one.
func TestRunContinuousTuning(t *testing.T) {
	sc := scenarios.NewCodePush()
	run, err := RunScenario(sc, ScenarioOptions{Cycles: sc.Profile().ReducedCycles, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := SummarizeCodePush(run)
	if res.NewIndexes == 0 {
		t.Fatal("shift did not trigger new indexes")
	}
	if !res.ShadowAccepted {
		t.Fatal("shadow gate rejected the fix")
	}
	if res.RetunedCPU >= res.ShiftedCPU {
		t.Errorf("re-tuning did not save CPU: %v -> %v", res.ShiftedCPU, res.RetunedCPU)
	}
	if res.ImprovedQueries == 0 {
		t.Error("no queries improved")
	}
	if res.CPUSavingFraction <= 0 {
		t.Error("no savings fraction")
	}
	if res.OrderOfMagnitude == 0 {
		t.Error("no query improved by an order of magnitude")
	}
}
