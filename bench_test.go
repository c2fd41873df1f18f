package aim_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§VI), plus ablation benchmarks for the design choices called
// out in DESIGN.md. Experiment sizes are reduced so `go test -bench=.`
// completes in minutes; cmd/aimbench runs the full-size versions and prints
// the actual rows/series.
//
// Reported custom metrics carry the reproduction targets, e.g.
// `jaccard`, `rel_cost_*`, `optcalls_*`, `tput_gain_%`.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"aim/internal/baselines"
	"aim/internal/core"
	"aim/internal/experiments"
	"aim/internal/scenarios"
	"aim/internal/workload"
	"aim/internal/workloads/job"
	"aim/internal/workloads/products"
	"aim/internal/workloads/tpch"
)

func benchSpec(name string) products.Spec {
	return products.Spec{Name: name, Tables: 10, JoinQueries: 12, Type: products.Balanced,
		TargetDBA: 26, RowsPerTable: 900, Seed: 9}
}

// BenchmarkTable2ProductsDBAvsAIM regenerates Table II on a reduced product.
func BenchmarkTable2ProductsDBAvsAIM(b *testing.B) {
	opts := experiments.DefaultTable2Options()
	opts.WorkloadStatements = 400
	var row *experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.RunTable2Product(benchSpec("Product bench"), opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.Jaccard, "jaccard")
	b.ReportMetric(float64(row.AIMIndexCount), "aim_indexes")
	b.ReportMetric(float64(row.DBAIndexCount), "dba_indexes")
	b.ReportMetric(float64(row.AIMBytes)/float64(row.DBABytes), "size_ratio")
}

// fig3Bench runs the Fig. 3 convergence protocol for one product letter.
func fig3Bench(b *testing.B, name string) {
	opts := experiments.DefaultFig3Options()
	opts.WarmTicks, opts.ObserveTicks, opts.RecoverTicks = 3, 4, 8
	opts.QueriesPerTick = 30
	spec := benchSpec(name)
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig3(spec, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Test.AvgCPU(3), "final_cpu_%")
	b.ReportMetric(res.Control.AvgCPU(3), "control_cpu_%")
	b.ReportMetric(res.Test.AvgThroughput(3), "final_tput")
	b.ReportMetric(float64(len(res.IndexTicks)), "indexes_built")
}

// BenchmarkFig3ConvergenceProductA..C regenerate Figures 3a-3f (reduced).
func BenchmarkFig3ConvergenceProductA(b *testing.B) { fig3Bench(b, "Product A") }
func BenchmarkFig3ConvergenceProductB(b *testing.B) { fig3Bench(b, "Product B") }
func BenchmarkFig3ConvergenceProductC(b *testing.B) { fig3Bench(b, "Product C") }

// fig4Bench sweeps one benchmark and reports per-algorithm cost & calls.
func fig4Bench(b *testing.B, bench string) {
	opts := experiments.DefaultFig4Options(bench)
	opts.Scale = 0.05
	opts.BudgetFractions = []float64{0.5, 1.0}
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig4(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res.Points {
		if p.BudgetBytes == 0 {
			continue
		}
	}
	// Report the full-budget point per algorithm.
	last := map[string]experiments.Fig4Point{}
	for _, p := range res.Points {
		last[p.Algorithm] = p
	}
	for algo, p := range last {
		b.ReportMetric(p.RelativeCost, "rel_cost_"+algo)
		b.ReportMetric(float64(p.OptimizerCalls), "optcalls_"+algo)
		b.ReportMetric(p.Runtime.Seconds()*1000, "runtime_ms_"+algo)
	}
}

// BenchmarkFig4TPCHCostAndRuntime regenerates Figures 4a/4b (reduced).
func BenchmarkFig4TPCHCostAndRuntime(b *testing.B) { fig4Bench(b, "tpch") }

// BenchmarkFig4JOBCostAndRuntime regenerates Figures 4c/4d (reduced).
func BenchmarkFig4JOBCostAndRuntime(b *testing.B) { fig4Bench(b, "job") }

// BenchmarkFig5PerQueryCosts regenerates Figure 5 (per-query TPC-H costs).
func BenchmarkFig5PerQueryCosts(b *testing.B) {
	opts := experiments.DefaultFig5Options()
	opts.Scale = 0.05
	var rows []*experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFig5(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	affected := 0
	var aimSum, unindexedSum float64
	for _, r := range rows {
		if r.Affected {
			affected++
		}
		aimSum += r.Costs["AIM"]
		unindexedSum += r.Unindexed
	}
	b.ReportMetric(float64(affected), "affected_queries")
	b.ReportMetric(aimSum/unindexedSum, "aim_rel_cost")
}

// BenchmarkFig6JoinParameter regenerates Figure 6 (reduced).
func BenchmarkFig6JoinParameter(b *testing.B) {
	opts := experiments.DefaultFig6Options()
	opts.Rows = 1500
	opts.PhaseTicks = 3
	opts.QueriesPerTick = 15
	var res *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig6(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ThroughputGainOverGIA()*100, "tput_gain_vs_gia_%")
	b.ReportMetric(res.CPUReductionOverGIA()*100, "cpu_saving_vs_gia_%")
	b.ReportMetric(res.J2GainOverJ1()*100, "j2_vs_j1_%")
	b.ReportMetric(res.J3GainOverJ2()*100, "j3_vs_j2_%")
}

// BenchmarkContinuousTuning regenerates the §VI-D study (the codepush
// scenario at its reduced length).
func BenchmarkContinuousTuning(b *testing.B) {
	var res experiments.CodePushSummary
	for i := 0; i < b.N; i++ {
		sc := scenarios.NewCodePush()
		run, err := experiments.RunScenario(sc, experiments.ScenarioOptions{Cycles: sc.Profile().ReducedCycles, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res = experiments.SummarizeCodePush(run)
	}
	b.ReportMetric(res.CPUSavingFraction*100, "cpu_saving_%")
	b.ReportMetric(float64(res.ImprovedQueries), "improved_queries")
	b.ReportMetric(float64(res.OrderOfMagnitude), "10x_improved")
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationPartialOrderMerging compares candidate counts and final
// workload cost with merging ON vs OFF.
func BenchmarkAblationPartialOrderMerging(b *testing.B) {
	db, err := tpch.Build(0.05, 11)
	if err != nil {
		b.Fatal(err)
	}
	mon := workload.NewMonitor()
	for _, q := range tpch.Queries(11) {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		mon.Observe(q, res)
	}
	queries := mon.Representative(workload.SelectionConfig{MinExecutions: 1})

	run := func(disable bool) (*core.Recommendation, float64) {
		cfg := core.DefaultConfig()
		cfg.MaxWidth = 4
		cfg.Selection.MinExecutions = 1
		cfg.DisableMerging = disable
		adv := core.NewAdvisor(db, cfg)
		rec, err := adv.RecommendQueries(queries)
		if err != nil {
			b.Fatal(err)
		}
		return rec, baselines.WorkloadCost(db, queries, rec.Create)
	}
	var onRec, offRec *core.Recommendation
	var onCost, offCost float64
	for i := 0; i < b.N; i++ {
		onRec, onCost = run(false)
		offRec, offCost = run(true)
	}
	b.ReportMetric(float64(onRec.PartialOrders), "pos_merged")
	b.ReportMetric(float64(offRec.PartialOrders), "pos_unmerged")
	b.ReportMetric(offCost/onCost, "cost_ratio_off_vs_on")
}

// BenchmarkAblationDatalessRangeColumn compares the dataless-index range
// column probe against taking an arbitrary range column.
func BenchmarkAblationDatalessRangeColumn(b *testing.B) {
	db, err := tpch.Build(0.05, 11)
	if err != nil {
		b.Fatal(err)
	}
	mon := workload.NewMonitor()
	for _, q := range tpch.Queries(11) {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		mon.Observe(q, res)
	}
	queries := mon.Representative(workload.SelectionConfig{MinExecutions: 1})
	run := func(arbitrary bool) float64 {
		cfg := core.DefaultConfig()
		cfg.MaxWidth = 4
		cfg.Selection.MinExecutions = 1
		cfg.ArbitraryRangeColumn = arbitrary
		adv := core.NewAdvisor(db, cfg)
		rec, err := adv.RecommendQueries(queries)
		if err != nil {
			b.Fatal(err)
		}
		return baselines.WorkloadCost(db, queries, rec.Create)
	}
	var probed, arbitrary float64
	for i := 0; i < b.N; i++ {
		probed = run(false)
		arbitrary = run(true)
	}
	b.ReportMetric(arbitrary/probed, "cost_ratio_arbitrary_vs_probed")
}

// BenchmarkAblationCoveringMode compares covering ON vs OFF on a seek-heavy
// workload.
func BenchmarkAblationCoveringMode(b *testing.B) {
	run := func(covering bool) float64 {
		spec := benchSpec("Product cov")
		spec.Type = products.ReadHeavy
		p, err := products.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		mon := workload.NewMonitor()
		for i := 0; i < 300; i++ {
			sql := p.SampleStatement(r)
			res, err := p.DB.Exec(sql)
			if err != nil {
				b.Fatal(err)
			}
			mon.Observe(sql, res)
		}
		cfg := core.DefaultConfig()
		cfg.EnableCovering = covering
		cfg.SeekThreshold = 10
		cfg.Selection.MinExecutions = 1
		adv := core.NewAdvisor(p.DB, cfg)
		rec, err := adv.Recommend(mon)
		if err != nil {
			b.Fatal(err)
		}
		return baselines.WorkloadCost(p.DB, mon.Representative(workload.SelectionConfig{MinExecutions: 1}), rec.Create)
	}
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = run(true)
		off = run(false)
	}
	b.ReportMetric(off/on, "cost_ratio_noncovering_vs_covering")
}

// BenchmarkAblationJoinPowerset sweeps the join parameter j = 0..3 on a
// star join and reports how the candidate pool grows with j.
func BenchmarkAblationJoinPowerset(b *testing.B) {
	db, err := job.Build(0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	mon := workload.NewMonitor()
	for _, q := range job.Queries(3) {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		mon.Observe(q, res)
	}
	queries := mon.Representative(workload.SelectionConfig{MinExecutions: 1})
	counts := map[int]int{}
	for i := 0; i < b.N; i++ {
		for j := 0; j <= 3; j++ {
			cfg := core.DefaultConfig()
			cfg.J = j
			cfg.Selection.MinExecutions = 1
			adv := core.NewAdvisor(db, cfg)
			rec, err := adv.RecommendQueries(queries)
			if err != nil {
				b.Fatal(err)
			}
			counts[j] = rec.CandidateCount
		}
	}
	for j := 0; j <= 3; j++ {
		b.ReportMetric(float64(counts[j]), fmt.Sprintf("candidates_j%d", j))
	}
}

// BenchmarkAblationKnapsackCriterion compares utility-per-byte against raw
// utility under a tight budget.
func BenchmarkAblationKnapsackCriterion(b *testing.B) {
	db, err := tpch.Build(0.05, 11)
	if err != nil {
		b.Fatal(err)
	}
	mon := workload.NewMonitor()
	for _, q := range tpch.Queries(11) {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		mon.Observe(q, res)
	}
	queries := mon.Representative(workload.SelectionConfig{MinExecutions: 1})
	// Budget = half of the unconstrained recommendation.
	cfg := core.DefaultConfig()
	cfg.MaxWidth = 4
	cfg.Selection.MinExecutions = 1
	adv := core.NewAdvisor(db, cfg)
	full, err := adv.RecommendQueries(queries)
	if err != nil {
		b.Fatal(err)
	}
	budget := full.TotalCreateBytes() / 2
	run := func(byUtility bool) float64 {
		cfg := core.DefaultConfig()
		cfg.MaxWidth = 4
		cfg.Selection.MinExecutions = 1
		cfg.BudgetBytes = budget
		cfg.RankByUtilityOnly = byUtility
		adv := core.NewAdvisor(db, cfg)
		rec, err := adv.RecommendQueries(queries)
		if err != nil {
			b.Fatal(err)
		}
		return baselines.WorkloadCost(db, queries, rec.Create)
	}
	var perByte, raw float64
	for i := 0; i < b.N; i++ {
		perByte = run(false)
		raw = run(true)
	}
	b.ReportMetric(raw/perByte, "cost_ratio_utility_vs_perbyte")
}

// BenchmarkAdvisorRuntimeScaling measures AIM's advisor runtime as the
// workload grows — the "cheap and stable runtime" claim of §VI-B.
func BenchmarkAdvisorRuntimeScaling(b *testing.B) {
	for _, n := range []int{5, 10, 22} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			db, err := tpch.Build(0.05, 11)
			if err != nil {
				b.Fatal(err)
			}
			mon := workload.NewMonitor()
			for _, q := range tpch.Queries(11)[:n] {
				res, err := db.Exec(q)
				if err != nil {
					b.Fatal(err)
				}
				mon.Observe(q, res)
			}
			queries := mon.Representative(workload.SelectionConfig{MinExecutions: 1})
			cfg := core.DefaultConfig()
			cfg.Selection.MinExecutions = 1
			adv := core.NewAdvisor(db, cfg)
			var rec *core.Recommendation
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec, err = adv.RecommendQueries(queries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rec.Cache.HitRate()*100, "cache_hit_%")
		})
	}
}

// BenchmarkAdvisorParallelism measures the parallel what-if fan-out at
// pool sizes 1 and GOMAXPROCS. The cost cache is dropped before every run,
// so the time measured is genuine plan computation, not memo replay; the
// recommendation is bit-identical across pool sizes (see the golden
// determinism tests).
func BenchmarkAdvisorParallelism(b *testing.B) {
	db, err := tpch.Build(0.05, 11)
	if err != nil {
		b.Fatal(err)
	}
	mon := workload.NewMonitor()
	for _, q := range tpch.Queries(11) {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		mon.Observe(q, res)
	}
	queries := mon.Representative(workload.SelectionConfig{MinExecutions: 1})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Selection.MinExecutions = 1
			cfg.Parallelism = workers
			adv := core.NewAdvisor(db, cfg)
			var rec *core.Recommendation
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.WhatIf.Invalidate()
				var err error
				if rec, err = adv.RecommendQueries(queries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rec.Cache.HitRate()*100, "cache_hit_%")
		})
	}
}
