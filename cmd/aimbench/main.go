// Command aimbench regenerates the paper's tables and figures on the
// embedded engine and prints their rows/series.
//
// Usage:
//
//	aimbench -exp table2              # Table II (DBA vs AIM per product)
//	aimbench -exp fig3  -product C    # CPU%/throughput convergence series
//	aimbench -exp fig4  -bench tpch   # cost & runtime vs budget sweep
//	aimbench -exp fig4  -bench job
//	aimbench -exp fig5                # per-query TPC-H costs at fixed budget
//	aimbench -exp fig6                # join-parameter study vs greedy
//	aimbench -exp continuous          # §VI-D: the codepush scenario + summary
//	aimbench -exp scenario -scenario drift   # one adversarial scenario
//	aimbench -exp scenario -scenario all     # the whole adversarial suite
//	aimbench -exp serve               # live aimd fleet vs its offline run
//	aimbench -exp all                 # everything (slow)
//
// -fast shrinks datasets (and scenario cycle counts) for quick smoke runs.
// -metrics dumps the observability registry (counters, gauges, what-if
// latency percentiles, per-phase span timings) after each experiment;
// -trace-out writes every span as a JSON line for offline flame-graph
// analysis.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"aim/internal/audit"
	"aim/internal/experiments"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/scenarios"
	"aim/internal/storage"
	"aim/internal/workloads/products"
)

// app carries one invocation's outputs and the settings every experiment
// helper reads.
type app struct {
	out, errw io.Writer
	// obs is non-nil when -metrics or -trace-out is set; the helpers thread
	// it into every experiment's options.
	obs *obs.Registry
	// auditOut carries -audit-out into the experiments that run a decision
	// loop (continuous, scenario).
	auditOut string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the selected
// experiments writing to stdout/stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	a := &app{out: stdout, errw: stderr}
	fs := flag.NewFlagSet("aimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: table2|fig3|fig4|fig5|fig6|continuous|scenario|serve|all")
	bench := fs.String("bench", "tpch", "benchmark for fig4: tpch|job")
	scenario := fs.String("scenario", "all", "adversarial scenario for -exp scenario: "+strings.Join(scenarios.Names(), "|")+"|all")
	product := fs.String("product", "C", "product for fig3: A..G")
	fast := fs.Bool("fast", false, "reduced dataset sizes")
	workers := fs.Int("workers", 0, "cap what-if costing parallelism (0 = all cores)")
	metrics := fs.Bool("metrics", false, "print the metrics registry after each experiment")
	traceOut := fs.String("trace-out", "", "write advisor spans as JSON lines to this file")
	failpoints := fs.String("failpoints", "", `fault spec, e.g. "shadow.clone=err(0.05)" (or env `+failpoint.EnvVar+")")
	fpSeed := fs.Int64("failpoint-seed", 1, "seed for failpoint firing schedules")
	fs.StringVar(&a.auditOut, "audit-out", "", "write the decision journal of the continuous / scenario experiments (JSON lines) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if _, err := failpoint.Setup(*failpoints, *fpSeed); err != nil {
		fmt.Fprintf(stderr, "aimbench: %v\n", err)
		return 1
	}

	// The experiments construct their advisor configs internally with the
	// default Parallelism (0 = GOMAXPROCS), so bounding GOMAXPROCS bounds
	// every worker pool in the run.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	if *metrics || *traceOut != "" {
		a.obs = obs.NewRegistry()
		pool.Instrument(a.obs)
		storage.Instrument(a.obs)
		failpoint.Instrument(a.obs)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(stderr, "aimbench: %v\n", err)
				return 1
			}
			defer f.Close()
			a.obs.SetTraceWriter(f)
		}
	}

	type experiment struct {
		name string
		f    func() error
	}
	table2 := experiment{"Table II", func() error { return a.runTable2(*fast) }}
	fig3 := experiment{"Figure 3", func() error { return a.runFig3(*product, *fast) }}
	fig4 := func(bench string) experiment {
		return experiment{"Figure 4 (" + bench + ")", func() error { return a.runFig4(bench, *fast) }}
	}
	fig5 := experiment{"Figure 5", func() error { return a.runFig5(*fast) }}
	fig6 := experiment{"Figure 6", func() error { return a.runFig6(*fast) }}
	continuous := experiment{"Continuous tuning (§VI-D)", func() error { return a.runContinuous(*fast) }}

	var list []experiment
	switch *exp {
	case "table2":
		list = []experiment{table2}
	case "fig3":
		list = []experiment{fig3}
	case "fig4":
		list = []experiment{fig4(*bench)}
	case "fig5":
		list = []experiment{fig5}
	case "fig6":
		list = []experiment{fig6}
	case "continuous":
		list = []experiment{continuous}
	case "scenario":
		list = []experiment{{"Adversarial scenarios", func() error { return a.runScenarios(*scenario, *fast) }}}
	case "serve":
		list = []experiment{{"Live serving (aimd fleet)", func() error { return a.runServe(*fast, *workers) }}}
	case "all":
		list = []experiment{table2, fig3, fig4("tpch"), fig4("job"), fig5, fig6, continuous}
	default:
		fmt.Fprintf(stderr, "aimbench: unknown experiment %q\n", *exp)
		return 2
	}
	for _, e := range list {
		fmt.Fprintf(stdout, "\n=== %s ===\n", e.name)
		if err := e.f(); err != nil {
			fmt.Fprintf(stderr, "aimbench: %s: %v\n", e.name, err)
			return 1
		}
		if *metrics {
			fmt.Fprintf(stdout, "\n--- metrics (%s) ---\n", e.name)
			a.obs.WriteTo(stdout)
		}
	}
	return 0
}

func (a *app) runTable2(fast bool) error {
	opts := experiments.DefaultTable2Options()
	opts.Obs = a.obs
	specs := products.Catalog
	if fast {
		opts.WorkloadStatements = 300
		scaled := make([]products.Spec, len(specs))
		for i, s := range specs {
			s.Tables = min(s.Tables, 20)
			s.JoinQueries = min(s.JoinQueries, 30)
			s.TargetDBA = min(s.TargetDBA, 40)
			s.RowsPerTable = 150
			scaled[i] = s
		}
		specs = scaled
	}
	w := tabwriter.NewWriter(a.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Product\tTables\tJoinQ\tType\tDBA#\tAIM#\tDBA size\tAIM size\tJaccard")
	for _, spec := range specs {
		row, err := experiments.RunTable2Product(spec, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%d\t%s\t%s\t%.2f\n",
			row.Product, row.Tables, row.JoinQueries, row.WorkloadType,
			row.DBAIndexCount, row.AIMIndexCount,
			sizeStr(row.DBABytes), sizeStr(row.AIMBytes), row.Jaccard)
		w.Flush()
	}
	return nil
}

func (a *app) runFig3(product string, fast bool) error {
	spec, ok := products.SpecByName(product)
	if !ok {
		return fmt.Errorf("unknown product %q", product)
	}
	opts := experiments.DefaultFig3Options()
	opts.Obs = a.obs
	if fast {
		spec.Tables = min(spec.Tables, 15)
		spec.JoinQueries = min(spec.JoinQueries, 20)
		spec.TargetDBA = min(spec.TargetDBA, 30)
		spec.RowsPerTable = 150
		opts.WarmTicks, opts.ObserveTicks, opts.RecoverTicks = 4, 6, 10
	}
	res, err := experiments.RunFig3(spec, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "%s — drop@t%d, AIM@t%d, builds@%v\n", res.Product, res.DropTick, res.AIMStartTick, res.IndexTicks)
	w := tabwriter.NewWriter(a.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tick\tcontrol CPU%\ttest CPU%\tcontrol tput\ttest tput\tevent")
	for i := range res.Test.Ticks {
		event := ""
		if i == res.DropTick {
			event = "<- secondary indexes dropped"
		}
		if i == res.AIMStartTick {
			event = "<- AIM begins"
		}
		for _, bt := range res.IndexTicks {
			if bt == i {
				event = "<- index built"
			}
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.0f\t%.0f\t%s\n",
			i, res.Control.Ticks[i].CPUPercent, res.Test.Ticks[i].CPUPercent,
			res.Control.Ticks[i].Throughput, res.Test.Ticks[i].Throughput, event)
	}
	return w.Flush()
}

func (a *app) runFig4(bench string, fast bool) error {
	opts := experiments.DefaultFig4Options(bench)
	opts.Obs = a.obs
	if fast {
		opts.Scale = 0.05
		opts.BudgetFractions = []float64{0.25, 0.5, 1.0}
	}
	res, err := experiments.RunFig4(opts)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(a.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "budget\talgorithm\trel. cost\topt calls\tindexes")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%d\t%d\n",
			sizeStr(p.BudgetBytes), p.Algorithm, p.RelativeCost, p.OptimizerCalls, p.IndexCount)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// Runtimes differ from run to run, so they stay out of the table above,
	// which two runs of one build print identically: one line per budget.
	for i := 0; i < len(res.Points); {
		budget, times := res.Points[i].BudgetBytes, []string{}
		for ; i < len(res.Points) && res.Points[i].BudgetBytes == budget; i++ {
			times = append(times, fmt.Sprintf("%s %s", res.Points[i].Algorithm, res.Points[i].Runtime.Round(time.Millisecond)))
		}
		fmt.Fprintf(a.out, "runtime (wall clock) at %s: %s\n", sizeStr(budget), strings.Join(times, ", "))
	}
	return nil
}

func (a *app) runFig5(fast bool) error {
	opts := experiments.DefaultFig5Options()
	opts.Obs = a.obs
	if fast {
		opts.Scale = 0.05
	}
	rows, err := experiments.RunFig5(opts)
	if err != nil {
		return err
	}
	var algos []string
	for a := range rows[0].Costs {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	w := tabwriter.NewWriter(a.out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "query\tunindexed")
	for _, a := range algos {
		fmt.Fprintf(w, "\t%s", a)
	}
	fmt.Fprintln(w, "\taffected")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.4f", r.Query, r.Unindexed)
		for _, a := range algos {
			fmt.Fprintf(w, "\t%.4f", r.Costs[a])
		}
		fmt.Fprintf(w, "\t%v\n", r.Affected)
	}
	return w.Flush()
}

func (a *app) runFig6(fast bool) error {
	opts := experiments.DefaultFig6Options()
	opts.Obs = a.obs
	if fast {
		opts.Rows = 1500
		opts.PhaseTicks = 4
		opts.QueriesPerTick = 15
		opts.Capacity = 0.5
	}
	res, err := experiments.RunFig6(opts)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(a.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "tick\tAIM CPU%\tGIA CPU%\tAIM tput\tGIA tput\tphase")
	for i := range res.AIM.Ticks {
		phase := ""
		for j, start := range res.JStartTicks {
			if start == i {
				phase = fmt.Sprintf("<- AIM j=%d indexes", j)
			}
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.0f\t%.0f\t%s\n",
			i, res.AIM.Ticks[i].CPUPercent, res.GIA.Ticks[i].CPUPercent,
			res.AIM.Ticks[i].Throughput, res.GIA.Ticks[i].Throughput, phase)
	}
	w.Flush()
	fmt.Fprintf(a.out, "\nAIM vs GIA: throughput %+.1f%%, CPU %+.1f%% (paper: +27%%, -4.8%%)\n",
		res.ThroughputGainOverGIA()*100, -res.CPUReductionOverGIA()*100)
	fmt.Fprintf(a.out, "j=1→2 throughput gain: %+.1f%% (paper: +16%%); j=2→3: %+.1f%% (paper: insignificant)\n",
		res.J2GainOverJ1()*100, res.J3GainOverJ2()*100)
	return nil
}

// runContinuous is the §VI-D study: the codepush scenario through the same
// runner as every other scenario, then the paper's figures read off the run.
func (a *app) runContinuous(fast bool) error {
	results, err := a.runScenarioList([]scenarios.Scenario{scenarios.NewCodePush()}, fast)
	if err != nil {
		return err
	}
	res := results[0]
	s := experiments.SummarizeCodePush(res)
	fmt.Fprintf(a.out, "\nwindow CPU: steady %.3fs -> shifted %.3fs -> re-tuned %.3fs\n",
		s.SteadyCPU, s.ShiftedCPU, s.RetunedCPU)
	fmt.Fprintf(a.out, "new indexes: %d (shadow gate accepted: %v)\n", s.NewIndexes, s.ShadowAccepted)
	fmt.Fprintf(a.out, "improved queries: %d (≥10x: %d); CPU saving: %.1f%%\n",
		s.ImprovedQueries, s.OrderOfMagnitude, s.CPUSavingFraction*100)
	fmt.Fprintf(a.out, "data surge in window %d: first revert in window %d, %d automation indexes reverted\n",
		scenarios.CodeSurgeCycle+1, res.FirstRevertAfterTrap, res.Reverted)
	return nil
}

// runScenarios drives the adversarial scenario suite outside the test
// harness.
func (a *app) runScenarios(name string, fast bool) error {
	list := scenarios.All()
	if name != "all" {
		sc, ok := scenarios.ByName(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (have %s)", name, strings.Join(scenarios.Names(), ", "))
		}
		list = []scenarios.Scenario{sc}
	}
	_, err := a.runScenarioList(list, fast)
	return err
}

// runScenarioList runs each scenario at its full profile (reduced with
// -fast), prints the stability summary, and fails if any profile bound is
// violated.
func (a *app) runScenarioList(list []scenarios.Scenario, fast bool) ([]*experiments.ScenarioResult, error) {
	var jrn *audit.Journal
	if a.auditOut != "" {
		j, err := audit.Create(a.auditOut)
		if err != nil {
			return nil, err
		}
		jrn = j
		defer func() {
			if err := jrn.Close(); err != nil {
				fmt.Fprintf(a.errw, "aimbench: audit journal: %v\n", err)
			}
		}()
	}
	var results []*experiments.ScenarioResult
	violated := 0
	for _, sc := range list {
		p := sc.Profile()
		cycles := p.Cycles
		if fast {
			cycles = p.ReducedCycles
		}
		res, err := experiments.RunScenario(sc, experiments.ScenarioOptions{
			Cycles: cycles, Seed: 1, Obs: a.obs, Audit: jrn,
		})
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		fmt.Fprintf(a.out, "\n%s — %s\n%s", sc.Name(), sc.Description(), res.Render())
		for _, v := range res.Violations(p) {
			violated++
			fmt.Fprintf(a.out, "VIOLATION: %s\n", v)
		}
	}
	if violated > 0 {
		return nil, fmt.Errorf("%d stability bound(s) violated", violated)
	}
	return results, nil
}

func sizeStr(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
