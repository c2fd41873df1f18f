// Command aimctl demonstrates the AIM advisor end to end on a SQL script:
// it loads schema + data, replays a workload section, prints the workload
// monitor's view, runs the advisor and prints the recommendation with its
// metrics-driven explanations, optionally validating it through the shadow
// gate (a dry run) or running one gated tuning cycle that adopts it.
//
// Script format: plain SQL statements separated by semicolons/newlines.
// Lines starting with "-- workload" switch from loading to workload replay
// (statements after it are recorded in the monitor; a trailing integer sets
// the repeat count, e.g. "-- workload 20").
//
// Usage:
//
//	aimctl -script setup.sql [-j 2] [-budget 64MiB] [-apply] [-validate]
//	aimctl -demo                       # built-in demo script
//	aimctl -demo -metrics              # + metrics registry dump after the run
//	aimctl -demo -trace-out spans.json # + advisor spans as JSON lines
//	aimctl -demo -audit-out aim.jsonl  # + decision journal (one JSON line per decision)
//	aimctl -demo -telemetry-addr :8080 # + /metricsz /statusz /healthz /debug/pprof
//
//	aimctl explain orders.aim_orders_1a2b3c4d -journal aim.jsonl [-trace spans.json]
//	    reconstruct why an index was created (or a candidate rejected) from
//	    the decision journal; -trace annotates each step with its span name.
//
//	aimctl remote -addr 127.0.0.1:4440 "SELECT ..." | -tune | -ping
//	    talk to a running aimd over the wire protocol (see cmd/aimd);
//	    -trace stamps statements with a trace ID.
//
//	aimctl top -url http://127.0.0.1:8080
//	    live terminal dashboard: rates and interval latencies from
//	    differencing successive /metricsz scrapes of a running aimd.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/storage"
	"aim/internal/telemetry"
	"aim/internal/workload"
)

const demoScript = `
CREATE TABLE users (id INT, city VARCHAR(16), tier INT, signup_day INT, PRIMARY KEY (id));
CREATE TABLE orders (id INT, user_id INT, status VARCHAR(8), amount FLOAT, day INT, PRIMARY KEY (id));
-- demo data is generated programmatically below
-- workload 25
SELECT id FROM users WHERE city = 'sf' AND tier = 2;
SELECT o.amount FROM users u JOIN orders o ON o.user_id = u.id WHERE u.city = 'nyc' AND o.status = 'paid';
SELECT status, COUNT(*) FROM orders WHERE day > 180 GROUP BY status;
SELECT id FROM orders WHERE day BETWEEN 100 AND 140 ORDER BY day LIMIT 10;
UPDATE orders SET status = 'done' WHERE id = 42;
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// app carries one invocation's output streams.
type app struct{ out, errw io.Writer }

func (a *app) fail(err error) int {
	fmt.Fprintf(a.errw, "aimctl: %v\n", err)
	return 1
}

// parse parses fs against args, reporting to the app's stderr; done is set
// when the invocation ends here (-h, or a flag error with its status).
func (a *app) parse(fs *flag.FlagSet, args []string) (status int, done bool) {
	fs.SetOutput(a.errw)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, false
	case errors.Is(err, flag.ErrHelp):
		return 0, true
	default:
		return 2, true
	}
}

// run is main without the process: it dispatches the subcommand (or the
// advisor walk-through) writing to stdout/stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	a := &app{out: stdout, errw: stderr}
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "explain":
			return a.runExplain(args[1:])
		case "remote":
			return a.runRemote(args[1:])
		case "top":
			return a.runTop(args[1:])
		}
		fmt.Fprintf(stderr, "aimctl: unknown subcommand %q (have explain, remote, top)\n", args[0])
		return 2
	}
	return a.runAdvisor(args)
}

// runAdvisor is the end-to-end walk-through: load, replay, recommend and,
// on request, validate and apply.
func (a *app) runAdvisor(args []string) int {
	fs := flag.NewFlagSet("aimctl", flag.ContinueOnError)
	script := fs.String("script", "", "SQL script file (schema + data, then -- workload section)")
	demo := fs.Bool("demo", false, "run the built-in demo")
	j := fs.Int("j", 2, "join parameter")
	budget := fs.String("budget", "", "storage budget, e.g. 64MiB (empty = unlimited)")
	apply := fs.Bool("apply", false, "run one tuning cycle: shadow-validate the recommendation and adopt it on acceptance")
	validate := fs.Bool("validate", false, "run the shadow no-regression gate without applying (implied by -apply)")
	workers := fs.Int("workers", 0, "what-if costing worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	metrics := fs.Bool("metrics", false, "print the metrics registry after the run")
	traceOut := fs.String("trace-out", "", "write advisor spans as JSON lines to this file")
	failpoints := fs.String("failpoints", "", `fault spec, e.g. "shadow.clone=err(0.05)" (or env `+failpoint.EnvVar+")")
	fpSeed := fs.Int64("failpoint-seed", 1, "seed for failpoint firing schedules")
	auditOut := fs.String("audit-out", "", "write the decision journal (JSON lines) to this file")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metricsz /statusz /healthz /debug/pprof on this address for the run")
	if status, done := a.parse(fs, args); done {
		return status
	}

	if _, err := failpoint.Setup(*failpoints, *fpSeed); err != nil {
		return a.fail(err)
	}

	var reg *obs.Registry
	// -telemetry-addr implies a registry: an attached scraper expects
	// /metricsz to carry the run's counters, not an empty exposition.
	if *metrics || *traceOut != "" || *telemetryAddr != "" {
		reg = obs.NewRegistry()
		pool.Instrument(reg)
		storage.Instrument(reg)
		failpoint.Instrument(reg)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return a.fail(err)
			}
			defer f.Close()
			reg.SetTraceWriter(f)
		}
	}
	if *metrics {
		defer func() {
			fmt.Fprintln(a.out, "\n--- metrics ---")
			reg.WriteTo(a.out) //nolint:errcheck // diagnostics
		}()
	}

	var text string
	switch {
	case *demo:
		text = demoScript
	case *script != "":
		b, err := os.ReadFile(*script)
		if err != nil {
			return a.fail(err)
		}
		text = string(b)
	default:
		fs.Usage()
		return 2
	}

	db := engine.New("aimctl")
	if reg != nil {
		db.SetObs(reg)
	}
	var jrn *audit.Journal
	if *auditOut != "" {
		var err error
		if jrn, err = audit.Create(*auditOut); err != nil {
			return a.fail(err)
		}
		defer func() {
			if err := jrn.Close(); err != nil {
				fmt.Fprintf(a.errw, "aimctl: audit journal: %v\n", err)
			}
		}()
		db.SetAudit(jrn)
	}
	var tel *telemetry.Server
	if *telemetryAddr != "" {
		tel = telemetry.New(telemetry.Options{Registry: reg, DB: db, Audit: jrn})
		addr, err := tel.Start(*telemetryAddr)
		if err != nil {
			return a.fail(err)
		}
		defer tel.Close()
		fmt.Fprintf(a.out, "telemetry on http://%s (/metricsz /statusz /healthz /debug/pprof)\n", addr)
	}
	mon := workload.NewMonitor()
	if err := runScript(db, mon, text, *demo); err != nil {
		return a.fail(err)
	}

	fmt.Fprintf(a.out, "observed %d distinct normalized queries, %.4fs total cpu\n",
		mon.Len(), mon.TotalCPUSeconds())
	for _, q := range mon.Queries() {
		fmt.Fprintf(a.out, "  %6.4fs cpu  %4d exec  ddr %.3f  %s\n", q.CPUSeconds, q.Executions, q.DDR(), q.Normalized)
	}

	cfg := core.DefaultConfig()
	cfg.J = *j
	cfg.Parallelism = *workers
	if *budget != "" {
		n, err := parseSize(*budget)
		if err != nil {
			return a.fail(err)
		}
		cfg.BudgetBytes = n
	}
	adv := core.NewAdvisor(db, cfg)
	// -apply is one tuning cycle, the daemon's own: recommend, gate, adopt the
	// trees the gate measured. Otherwise the recommendation is all there is.
	var out server.Outcome
	var err error
	if *apply {
		tuner := &server.Tuner{DB: db, Adv: adv, Detector: regression.NewDetector(0.5), Gate: shadow.DefaultGate()}
		out, err = tuner.Run(mon)
	} else {
		out.Rec, err = adv.Recommend(mon)
	}
	if err != nil {
		return a.fail(err)
	}
	rec := out.Rec

	fmt.Fprintf(a.out, "\nAIM: %d partial orders -> %d candidates -> %d selected (%d optimizer calls, %s)\n",
		rec.PartialOrders, rec.CandidateCount, len(rec.Create), rec.OptimizerCalls, rec.Elapsed.Round(1000000))
	fmt.Fprintf(a.out, "cost cache: %d hits / %d misses (%.1f%% hit rate), %d evictions, %d entries\n",
		rec.Cache.Hits, rec.Cache.Misses, rec.Cache.HitRate()*100, rec.Cache.Evictions, rec.Cache.Entries)
	for _, e := range rec.Explanations {
		fmt.Fprintf(a.out, "  CREATE %s\n    %s\n", e.Index, e.String())
	}
	for _, d := range rec.Drop {
		fmt.Fprintf(a.out, "  DROP %s (no executed plan in the window read it)\n", d)
	}
	if len(rec.Create) == 0 {
		return 0
	}

	report := out.Report
	if *validate && !*apply {
		if report, err = shadow.Validate(db, rec.Create, mon, shadow.DefaultGate()); err != nil {
			return a.fail(err)
		}
		report.Release() // a dry run adopts nothing from the snapshot
	}
	if report == nil {
		return 0
	}
	if tel != nil {
		tel.SetShadowReport(report)
	}
	fmt.Fprintf(a.out, "\nshadow validation: %s [%s] (gain %.4fs cpu/window)\n", report.Verdict(), report.Code, report.TotalGain)
	fmt.Fprintf(a.out, "  %s\n", report.Reason)
	for _, o := range report.Outcomes {
		fmt.Fprintf(a.out, "  %+6.1f%%  %s\n", o.Change()*100, o.Normalized)
	}
	if out.ApplyErr != nil {
		return a.fail(out.ApplyErr)
	}
	if len(out.Adopted) > 0 {
		fmt.Fprintf(a.out, "\napplied: %s\n", strings.Join(out.Adopted, ", "))
	}
	return 0
}

// runExplain implements `aimctl explain <ref>`: it reads a decision journal
// (written by -audit-out) and renders the full why-lineage of one index —
// the candidate it came from, its ranking and knapsack verdict under the
// budget, the shadow-gate verdict, the adoption and any regression revert.
// With -trace, each step is annotated with the obs span that produced it.
func (a *app) runExplain(args []string) int {
	fs := flag.NewFlagSet("aimctl explain", flag.ContinueOnError)
	journal := fs.String("journal", "", "decision journal file (written with -audit-out)")
	trace := fs.String("trace", "", "span trace file (written with -trace-out) for phase annotations")
	fs.Usage = func() {
		fmt.Fprintln(a.errw, "usage: aimctl explain <table.index | index | table(col,...)> -journal aim.jsonl [-trace spans.json]")
		fs.PrintDefaults()
	}
	// Accept the reference before or after the flags.
	var ref string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		ref, args = args[0], args[1:]
	}
	if status, done := a.parse(fs, args); done {
		return status
	}
	if ref == "" && fs.NArg() > 0 {
		ref = fs.Arg(0)
	}
	if ref == "" || *journal == "" {
		fs.Usage()
		return 2
	}
	recs, err := audit.ReadFile(*journal)
	if err != nil {
		return a.fail(err)
	}
	var spans map[uint64]audit.SpanInfo
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			return a.fail(err)
		}
		spans, err = audit.ParseTrace(f)
		f.Close()
		if err != nil {
			return a.fail(err)
		}
	}
	lineage, err := audit.Explain(recs, ref)
	if err != nil {
		return a.fail(err)
	}
	lineage.Render(a.out, spans)
	return 0
}

// runScript executes the load section and replays the workload section.
func runScript(db *engine.DB, mon *workload.Monitor, text string, demo bool) error {
	inWorkload := false
	repeat := 1
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(raw), ";"))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "--") {
			rest := strings.TrimSpace(strings.TrimPrefix(line, "--"))
			if strings.HasPrefix(rest, "workload") {
				inWorkload = true
				if n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(rest, "workload"))); err == nil && n > 0 {
					repeat = n
				}
				if demo {
					loadDemoData(db)
				}
			}
			continue
		}
		if !inWorkload {
			if _, err := db.Exec(line); err != nil {
				return fmt.Errorf("load: %v (sql: %s)", err, line)
			}
			continue
		}
		for i := 0; i < repeat; i++ {
			res, err := db.Exec(line)
			if err != nil {
				return fmt.Errorf("workload: %v (sql: %s)", err, line)
			}
			if err := mon.Observe(line, res); err != nil {
				return err
			}
		}
	}
	db.Analyze()
	return nil
}

func loadDemoData(db *engine.DB) {
	cities := []string{"sf", "nyc", "la", "chi"}
	statuses := []string{"new", "paid", "done"}
	for i := 0; i < 500; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, '%s', %d, %d)",
			i, cities[i%4], i%4, i%365))
	}
	for i := 0; i < 5000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, '%s', %d.5, %d)",
			i, (i*7)%500, statuses[i%3], i%400, i%365))
	}
	db.Analyze()
}

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	for suffix, m := range map[string]int64{"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30, "KB": 1000, "MB": 1000000, "GB": 1000000000} {
		if strings.HasSuffix(s, suffix) {
			mult = m
			s = strings.TrimSuffix(s, suffix)
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return int64(n * float64(mult)), nil
}
