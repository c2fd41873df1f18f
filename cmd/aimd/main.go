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
//	aimd -demo -telemetry-addr :8080          # /metricsz /statusz /slowz /timeseriesz ...
//	aimd -demo -audit-out aimd.jsonl          # decision journal for `aimctl explain`
//	aimd -demo -slow-threshold 50ms -trace-sample 100   # slow-query capture + 1-in-100 sample
//	aimd -demo -failpoints "server.read_frame=err(0.01)"
//
// SIGTERM or SIGINT drains gracefully: accepting stops, in-flight
// statements finish and are answered, a final partial window is tuned, and
// the observed drain wall-clock lands in server.drain_seconds.
package main

import (
	"flag"
	"fmt"
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
	"aim/internal/shadow"
	"aim/internal/storage"
	"aim/internal/telemetry"

	icore "aim/internal/core"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4440", "listen address")
	initScript := flag.String("init", "", "SQL script executed before serving (schema + data)")
	demo := flag.Bool("demo", false, "load the built-in demo fixture")
	window := flag.Int("window", 500, "statements per tuning window (0 = tune only on client OpTune frames)")
	workers := flag.Int("workers", 0, "what-if costing worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	maxConns := flag.Int("max-conns", 0, "max concurrent client sessions (0 = 8x cores)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "per-frame read deadline")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "per-frame write deadline")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful drain bound on SIGTERM")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metricsz /statusz /slowz /timeseriesz /healthz /debug/pprof on this address")
	slowThreshold := flag.Duration("slow-threshold", 250*time.Millisecond, "slow-query log latency threshold (0 = no over-threshold capture)")
	traceSample := flag.Int("trace-sample", 0, "also capture every Nth statement in the slow-query log (0 = off)")
	slowCap := flag.Int("slow-log", 256, "slow-query log ring capacity (0 = disable the log entirely)")
	tsInterval := flag.Duration("timeseries-interval", 5*time.Second, "registry sampling period for /timeseriesz (0 = off)")
	tsCap := flag.Int("timeseries-window", 360, "samples kept in the /timeseriesz ring")
	auditOut := flag.String("audit-out", "", "write the decision journal (JSON lines) to this file")
	failpoints := flag.String("failpoints", "", `fault spec, e.g. "server.read_frame=err(0.01)" (or env `+failpoint.EnvVar+")")
	fpSeed := flag.Int64("failpoint-seed", 1, "seed for failpoint firing schedules")
	flag.Parse()

	if _, err := failpoint.Setup(*failpoints, *fpSeed); err != nil {
		fatal(err)
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
			fatal(err)
		}
		defer func() {
			if err := jrn.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "aimd: audit journal: %v\n", err)
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
			fatal(err)
		}
		if err := loadScript(db, string(b)); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "aimd: serving an empty database (use -demo or -init to preload; clients may CREATE TABLE over the wire)")
	}
	db.Analyze()

	cfg := icore.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	cfg.Parallelism = *workers
	det := regression.NewDetector(0.5)

	// The query flight recorder: a slow-query ring fed by the statement path
	// (over-threshold capture plus deterministic 1-in-N sampling) and a
	// periodic registry sampler behind /timeseriesz. Both are nil when off —
	// the statement path then pays a single nil check.
	var slow *obs.SlowLog
	if *slowCap > 0 && (*slowThreshold > 0 || *traceSample > 0) {
		slow = obs.NewSlowLog(*slowCap, *slowThreshold, *traceSample)
		slow.Instrument(reg)
	}
	var series *obs.TimeSeries
	if *telemetryAddr != "" && *tsInterval > 0 {
		series = obs.NewTimeSeries(reg, *tsCap)
		stop := series.Start(*tsInterval)
		defer stop()
	}

	var tel *telemetry.Server
	var onReport func(*shadow.Report)
	if *telemetryAddr != "" {
		tel = telemetry.New(telemetry.Options{Registry: reg, DB: db, Detector: det, Audit: jrn,
			Slow: slow, TimeSeries: series})
		taddr, err := tel.Start(*telemetryAddr)
		if err != nil {
			fatal(err)
		}
		defer tel.Close()
		onReport = tel.SetShadowReport
		fmt.Printf("aimd: telemetry on http://%s (/metricsz /statusz /slowz /timeseriesz /healthz /debug/pprof)\n", taddr)
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
		OnReport:         onReport,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("aimd: listening on %s (window=%d statements, workers=%d)\n", bound, *window, pool.Workers(*workers))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	fmt.Printf("aimd: %s received, draining...\n", got)
	start := time.Now()
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "aimd: %v\n", err)
	}
	t := srv.Tuner()
	fmt.Printf("aimd: drained in %.3fs (cycles=%d adoptions=%d reverted=%d degraded=%d)\n",
		time.Since(start).Seconds(), t.Cycles, t.Cycle.Adoptions, t.Cycle.Reverted, t.Cycle.DegradedValidations)
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "aimd: %v\n", err)
	os.Exit(1)
}
