// Command aimd is the AIM daemon: a long-running TCP server speaking the
// length-prefixed wire protocol of internal/server, with the
// continuous-tuning advisor running in-process against the live statement
// stream. Clients send one SQL statement per frame; every WindowStatements
// observed statements the collector seals a window and the advisor →
// shadow-gate → regression-detector cycle runs against live traffic. The
// telemetry server, the decision audit journal and the failpoint registry
// are the ops surface.
//
// Usage:
//
//	aimd -demo                                # built-in fixture, :4440
//	aimd -addr :4440 -init schema.sql         # load a SQL script, serve
//	aimd -demo -window 200                    # tune every 200 statements
//	aimd -demo -telemetry-addr :8080          # /metricsz (what `aimctl top` reads) /statusz /slowz ...
//	aimd -demo -audit-out aimd.jsonl          # decision journal for `aimctl explain`
//	aimd -demo -slow-threshold 50ms -trace-sample 100   # slow-query capture + 1-in-100 sample
//	aimd -demo -failpoints "server.read_frame=err(0.01)"
//
// SIGTERM or SIGINT drains gracefully: accepting stops, in-flight
// statements finish and are answered, a final partial window is tuned, and
// the observed drain wall-clock lands in server.drain_seconds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aim/internal/audit"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/storage"
	"aim/internal/telemetry"

	icore "aim/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it serves until SIGTERM or SIGINT,
// drains, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:4440", "listen address")
	initScript := fs.String("init", "", "SQL script executed before serving (schema + data)")
	demo := fs.Bool("demo", false, "load the built-in demo fixture")
	window := fs.Int("window", 500, "statements per tuning window (0 = tune only on client OpTune frames)")
	workers := fs.Int("workers", 0, "what-if costing worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	maxConns := fs.Int("max-conns", 0, "max concurrent client sessions (0 = 8x cores)")
	readTimeout := fs.Duration("read-timeout", 2*time.Minute, "per-frame read deadline")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "per-frame write deadline")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful drain bound on SIGTERM")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metricsz /statusz /slowz /healthz /debug/pprof on this address")
	slowThreshold := fs.Duration("slow-threshold", 250*time.Millisecond, "slow-query log latency threshold (0 = no over-threshold capture)")
	traceSample := fs.Int("trace-sample", 0, "also capture every Nth statement in the slow-query log (0 = off)")
	slowCap := fs.Int("slow-log", 256, "slow-query log ring capacity (0 = disable the log entirely)")
	auditOut := fs.String("audit-out", "", "write the decision journal (JSON lines) to this file")
	failpoints := fs.String("failpoints", "", `fault spec, e.g. "server.read_frame=err(0.01)" (or env `+failpoint.EnvVar+")")
	fpSeed := fs.Int64("failpoint-seed", 1, "seed for failpoint firing schedules")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "aimd: %v\n", err)
		return 1
	}

	if _, err := failpoint.Setup(*failpoints, *fpSeed); err != nil {
		return fail(err)
	}

	reg := obs.NewRegistry()
	pool.Instrument(reg)
	storage.Instrument(reg)
	failpoint.Instrument(reg)

	db := engine.New("aimd")
	db.SetObs(reg)
	var jrn *audit.Journal
	if *auditOut != "" {
		var err error
		if jrn, err = audit.Create(*auditOut); err != nil {
			return fail(err)
		}
		defer func() {
			if err := jrn.Close(); err != nil {
				fmt.Fprintf(stderr, "aimd: audit journal: %v\n", err)
			}
		}()
		db.SetAudit(jrn)
	}

	switch {
	case *demo:
		loadDemoFixture(db)
	case *initScript != "":
		b, err := os.ReadFile(*initScript)
		if err != nil {
			return fail(err)
		}
		if err := loadScript(db, string(b)); err != nil {
			return fail(err)
		}
	default:
		fmt.Fprintln(stderr, "aimd: serving an empty database (use -demo or -init to preload; clients may CREATE TABLE over the wire)")
	}
	db.Analyze()

	cfg := icore.DefaultConfig()
	cfg.Parallelism = *workers
	det := regression.NewDetector(0.5)

	// The query flight recorder: a slow-query ring fed by the statement path
	// (over-threshold capture plus deterministic 1-in-N sampling). Nil when
	// off — the statement path then pays a single nil check.
	var slow *obs.SlowLog
	if *slowCap > 0 && (*slowThreshold > 0 || *traceSample > 0) {
		slow = obs.NewSlowLog(*slowCap, *slowThreshold, *traceSample)
		slow.Instrument(reg)
	}

	var tel *telemetry.Server
	var onCycle func(server.Outcome)
	if *telemetryAddr != "" {
		tel = telemetry.New(telemetry.Options{Registry: reg, DB: db, Detector: det, Audit: jrn, Slow: slow})
		taddr, err := tel.Start(*telemetryAddr)
		if err != nil {
			return fail(err)
		}
		defer tel.Close()
		onCycle = func(o server.Outcome) {
			if o.Report != nil {
				tel.SetShadowReport(o.Report)
			}
		}
		fmt.Fprintf(stdout, "aimd: telemetry on http://%s (/metricsz /statusz /slowz /healthz /debug/pprof)\n", taddr)
	}

	srv := server.New(server.Options{
		DB:               db,
		AdvisorCfg:       &cfg,
		Detector:         det,
		WindowStatements: *window,
		MaxConns:         *maxConns,
		ReadTimeout:      *readTimeout,
		WriteTimeout:     *writeTimeout,
		DrainTimeout:     *drainTimeout,
		Obs:              reg,
		SlowLog:          slow,
		OnCycle:          onCycle,
	})
	// Registered before the listener opens: a signal that arrives the moment
	// the address is announced must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	bound, err := srv.Start(*addr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "aimd: listening on %s (window=%d statements, workers=%d)\n", bound, *window, pool.Workers(*workers))

	got := <-sig
	fmt.Fprintf(stdout, "aimd: %s received, draining...\n", got)
	start := time.Now()
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(stderr, "aimd: %v\n", err)
	}
	t := srv.Tuner()
	fmt.Fprintf(stdout, "aimd: drained in %.3fs (cycles=%d adoptions=%d reverted=%d degraded=%d)\n",
		time.Since(start).Seconds(), t.Cycles, t.Adoptions, t.Reverted, t.DegradedValidations)
	return 0
}

// loadScript executes a plain SQL script: statements separated by
// semicolons or newlines, `--` comment lines skipped. The aimctl script
// format's `-- workload` marker is accepted and ignored — aimd's workload
// arrives over the wire, not from the file.
func loadScript(db *engine.DB, text string) error {
	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(raw), ";"))
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if _, err := db.Exec(line); err != nil {
			return fmt.Errorf("aimd: init: %v (sql: %s)", err, line)
		}
	}
	return nil
}

// loadDemoFixture builds the events table the experiments use, sized so the
// advisor has something worth indexing within a few windows.
func loadDemoFixture(db *engine.DB) {
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d, %d)",
			i, r.Intn(300), r.Intn(10), r.Intn(365), r.Intn(1000)))
	}
}
