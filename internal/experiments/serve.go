package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/loadgen"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/shadow"
)

// ServeSuiteOptions parameterizes the live-serving acceptance suite: a real
// aimd server on loopback, a seeded concurrent client fleet, and the
// determinism cross-checks that tie a networked run back to the offline
// batch loop.
type ServeSuiteOptions struct {
	// Clients, Rounds, PerRound shape the fleet (see loadgen.Options).
	Clients  int
	Rounds   int
	PerRound int
	// Seed fixes the statement streams and the fixture data.
	Seed int64
	// Rows sizes the events table.
	Rows int
	// Parallelism is the advisor worker-count sweep; every setting must
	// produce byte-identical verdicts, journals and index sets.
	Parallelism []int
	// Timeout bounds each client frame round-trip (0 = loadgen default).
	Timeout time.Duration
	// JournalPath, when set, receives the last run's normalized decision
	// journal (one JSON line per record) — the soak artifact.
	JournalPath string
	// TimeSeriesPath, when set, receives the last run's /timeseriesz-shaped
	// sample ring (one tick per round) — the flight-recorder soak artifact.
	TimeSeriesPath string
}

// DefaultServeSuiteOptions is the CI "servesuite" configuration: 16
// concurrent clients, 6 tuned rounds, worker sweep 1/2/4.
func DefaultServeSuiteOptions() ServeSuiteOptions {
	return ServeSuiteOptions{
		Clients:     16,
		Rounds:      6,
		PerRound:    20,
		Seed:        23,
		Rows:        2000,
		Parallelism: []int{1, 2, 4},
	}
}

// ServeRunResult is the outcome of one live fleet run at one worker count.
type ServeRunResult struct {
	Workers    int
	Statements int64
	Rows       int64
	// Verdicts are the per-round tuning verdict lines.
	Verdicts []string
	// Journal is the normalized decision journal (ts_us and span_id zeroed;
	// both depend on wall clock or allocation order, not on decisions).
	Journal []string
	// IndexKeys is the automation-adopted index set after the run.
	IndexKeys []string
	Adoptions int
	Reverted  int
	// DrainSeconds is the observed graceful-drain wall clock.
	DrainSeconds float64
	// TimeSeries is the run's sample ring (one tick per round barrier),
	// marshaled in the /timeseriesz payload shape.
	TimeSeries json.RawMessage
	// TracedAdoptions counts adopted indexes whose audit lineage resolved to
	// concrete traced statement IDs; a run with adoptions must have at least
	// one.
	TracedAdoptions int
}

// ServeSuiteResult aggregates the sweep plus the offline reference.
type ServeSuiteResult struct {
	// ReferenceKeys is the index set the offline tuner replay of the same
	// statement stream converges to; every live run must match it.
	ReferenceKeys []string
	// ReferenceVerdicts are the verdict lines the offline single-threaded
	// tuner replay of the same windows renders; live runs must match them
	// byte for byte.
	ReferenceVerdicts []string
	// ReferenceJournal is the offline tuner replay's normalized decision
	// journal — window records included, with the same deterministic trace
	// IDs the fleet sends. Every live run's journal must equal it.
	ReferenceJournal []string
	Runs             []ServeRunResult
}

// serveSampler is the fleet's read-only statement mix: two hot filter
// shapes on unindexed columns (the advisor must converge) plus a cold
// range probe. Read-only keeps the fixture state frozen within a round, so
// execution statistics depend only on the statement and the index set —
// the property that makes a concurrent networked run replayable offline.
func serveSampler(_, _, _ int, r *rand.Rand) string {
	switch r.Intn(8) {
	case 0, 1:
		return fmt.Sprintf("SELECT id FROM events WHERE kind = %d AND score > %d", r.Intn(8), r.Intn(900))
	case 2:
		return fmt.Sprintf("SELECT id FROM events WHERE day = %d", r.Intn(365))
	default:
		return fmt.Sprintf("SELECT score FROM events WHERE user_id = %d", r.Intn(150))
	}
}

// serveFixture builds the serving database: one events table with the hot
// filter columns unindexed.
func serveFixture(rows int, seed int64) *engine.DB {
	db := engine.New("serve")
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d, %d)",
			i, r.Intn(150), r.Intn(8), r.Intn(365), r.Intn(1000)))
	}
	db.Analyze()
	return db
}

func serveAdvisorCfg(workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	cfg.Parallelism = workers
	return cfg
}

// RunServeSuite executes the acceptance suite:
//
//  1. An offline single-threaded server.Tuner replay of the precomputed
//     fleet stream — the same tuning.Cycle the fault and scenario suites
//     drive through experiments.Loop — establishes the reference index set,
//     verdict lines and journal.
//  2. For each worker count, a real server is booted on loopback and the
//     seeded fleet drives it over TCP with a tuning cycle at every round
//     barrier; the run must drain cleanly and match the references.
//
// It returns an error on the first violated invariant: a statement error, a
// dirty drain, a leftover buffered statement, an ungated adoption, an
// incomplete adoption lineage, or any cross-run divergence.
func RunServeSuite(opts ServeSuiteOptions) (*ServeSuiteResult, error) {
	if opts.Clients <= 0 || opts.Rounds <= 0 || opts.PerRound <= 0 || opts.Rows <= 0 {
		return nil, fmt.Errorf("serve: all sizes must be positive: %+v", opts)
	}
	if len(opts.Parallelism) == 0 {
		opts.Parallelism = []int{1}
	}
	lgOpts := loadgen.Options{
		Clients:       opts.Clients,
		Rounds:        opts.Rounds,
		PerRound:      opts.PerRound,
		Seed:          opts.Seed,
		Sample:        serveSampler,
		TuneEachRound: true,
		TraceIDs:      true,
		Timeout:       opts.Timeout,
	}
	stream := loadgen.Stream(lgOpts)

	out := &ServeSuiteResult{}
	var err error
	out.ReferenceKeys, out.ReferenceVerdicts, out.ReferenceJournal, err = serveTunerReplay(opts, stream)
	if err != nil {
		return nil, err
	}
	if len(out.ReferenceKeys) == 0 {
		return nil, fmt.Errorf("serve: offline replay adopted no indexes; fixture is not exercising the loop")
	}

	for _, workers := range opts.Parallelism {
		run, err := serveLiveRun(opts, lgOpts, workers)
		if err != nil {
			return nil, fmt.Errorf("serve: workers=%d: %v", workers, err)
		}
		if !equalStrings(run.IndexKeys, out.ReferenceKeys) {
			return nil, fmt.Errorf("serve: workers=%d adopted %v, offline replay adopted %v", workers, run.IndexKeys, out.ReferenceKeys)
		}
		if !equalStrings(run.Verdicts, out.ReferenceVerdicts) {
			return nil, fmt.Errorf("serve: workers=%d verdicts diverge from offline replay:\n live:   %s\n replay: %s",
				workers, strings.Join(run.Verdicts, " | "), strings.Join(out.ReferenceVerdicts, " | "))
		}
		if !equalStrings(run.Journal, out.ReferenceJournal) {
			return nil, fmt.Errorf("serve: workers=%d journal diverges from offline tuner replay (%d vs %d records)",
				workers, len(run.Journal), len(out.ReferenceJournal))
		}
		if run.Adoptions > 0 && run.TracedAdoptions == 0 {
			return nil, fmt.Errorf("serve: workers=%d adopted %d indexes but no lineage resolved to traced statements", workers, run.Adoptions)
		}
		out.Runs = append(out.Runs, *run)
	}

	if opts.JournalPath != "" && len(out.Runs) > 0 {
		last := out.Runs[len(out.Runs)-1]
		data := strings.Join(last.Journal, "\n") + "\n"
		if err := os.WriteFile(opts.JournalPath, []byte(data), 0o644); err != nil {
			return nil, fmt.Errorf("serve: journal artifact: %v", err)
		}
	}
	if opts.TimeSeriesPath != "" && len(out.Runs) > 0 {
		last := out.Runs[len(out.Runs)-1]
		if err := os.WriteFile(opts.TimeSeriesPath, append([]byte(nil), last.TimeSeries...), 0o644); err != nil {
			return nil, fmt.Errorf("serve: timeseries artifact: %v", err)
		}
	}
	return out, nil
}

// serveTunerReplay replays the fleet stream through the server's own Tuner,
// single-threaded with no statement gate, building each round's window in
// the canonical (session, seq) order the live collector seals — including
// the deterministic trace IDs the fleet sends. Its verdict lines and its
// normalized decision journal (window records included) are the references
// a live run must reproduce byte for byte.
func serveTunerReplay(opts ServeSuiteOptions, stream [][]string) ([]string, []string, []string, error) {
	db := serveFixture(opts.Rows, opts.Seed)
	var buf bytes.Buffer
	jrn := audit.New(&buf)
	jrn.SetClock(func() int64 { return 0 })
	db.SetAudit(jrn)
	cfg := serveAdvisorCfg(1)
	tuner := &server.Tuner{
		DB:       db,
		Adv:      core.NewAdvisor(db, cfg),
		Detector: regression.NewDetector(0.5),
		Gate:     shadow.DefaultGate(),
	}
	var verdicts []string
	seq := make([]uint64, opts.Clients)
	for round := 0; round < opts.Rounds; round++ {
		w := make([]server.Record, 0, len(stream[round]))
		for c := 0; c < opts.Clients; c++ {
			for i := 0; i < opts.PerRound; i++ {
				sql := stream[round][c*opts.PerRound+i]
				res, err := db.Exec(sql)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("serve: tuner replay round %d %s: %v", round, sql, err)
				}
				seq[c]++
				w = append(w, server.Record{Session: loadgen.Label(c), Seq: seq[c],
					Trace: loadgen.Trace(c, round, i), SQL: sql, Stats: res.Stats})
			}
		}
		server.SortWindow(w)
		line, err := tuner.CycleWindow(w)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("serve: tuner replay round %d: %v", round, err)
		}
		verdicts = append(verdicts, line)
		if err := checkLoopInvariants(db); err != nil {
			return nil, nil, nil, fmt.Errorf("serve: tuner replay round %d: %v", round, err)
		}
	}
	if err := jrn.Close(); err != nil {
		return nil, nil, nil, fmt.Errorf("serve: tuner replay journal: %v", err)
	}
	records, err := audit.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: tuner replay journal: %v", err)
	}
	journal, err := normalizeJournal(records)
	if err != nil {
		return nil, nil, nil, err
	}
	return automationIndexKeys(db), verdicts, journal, nil
}

// serveLiveRun boots a real server on an ephemeral loopback port, drives
// the fleet over TCP, drains, and audits the run.
func serveLiveRun(opts ServeSuiteOptions, lgOpts loadgen.Options, workers int) (*ServeRunResult, error) {
	reg := obs.NewRegistry()
	db := serveFixture(opts.Rows, opts.Seed)
	db.SetObs(reg)
	var buf bytes.Buffer
	jrn := audit.New(&buf)
	jrn.SetClock(func() int64 { return 0 })
	db.SetAudit(jrn)

	// Full flight recorder on: slow-query capture with a threshold no
	// loopback statement crosses (so the ring content is pure deterministic
	// 1-in-N sampling) and a per-round time-series tick. The determinism
	// cross-checks below thereby certify the recorder never perturbs tuning.
	slow := obs.NewSlowLog(256, time.Hour, 100)
	slow.Instrument(reg)
	series := obs.NewTimeSeries(reg, opts.Rounds+1)
	lgOpts.OnRound = func(int) { series.Tick(time.Now()) }

	cfg := serveAdvisorCfg(workers)
	srv := server.New(server.Options{
		DB:         db,
		AdvisorCfg: &cfg,
		Obs:        reg,
		SlowLog:    slow,
		// The whole fleet plus the control connection must be admitted at
		// once — a bounded accept that parks client N+1 would deadlock the
		// round barrier. WindowStatements stays 0: the barriers own the cycle
		// boundaries, which is what makes window membership deterministic.
		MaxConns: opts.Clients + 2,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lgOpts.Addr = addr
	res, lgErr := loadgen.Run(lgOpts)

	// Always drain, even on a failed fleet, so the listener is released.
	drainErr := srv.Shutdown()
	if lgErr != nil {
		return nil, lgErr
	}
	if len(res.Errors) > 0 {
		return nil, fmt.Errorf("%d statement errors, first: %s", len(res.Errors), res.Errors[0])
	}
	if drainErr != nil {
		return nil, fmt.Errorf("dirty drain: %v", drainErr)
	}
	if open := reg.Gauge("server.connections_open").Value(); open != 0 {
		return nil, fmt.Errorf("connections_open = %d after drain", open)
	}
	if n := srv.Collector().Buffered(); n != 0 {
		return nil, fmt.Errorf("%d statements left unsealed after drain", n)
	}
	if want := int64(opts.Clients) * int64(opts.Rounds) * int64(opts.PerRound); res.Statements != want {
		return nil, fmt.Errorf("fleet executed %d statements, want %d", res.Statements, want)
	}
	total := int64(opts.Clients) * int64(opts.Rounds) * int64(opts.PerRound)
	snap := reg.Snapshot()
	if got := snap.Counters["slowlog.observed"]; got != total {
		return nil, fmt.Errorf("slow log observed %d statements, want %d", got, total)
	}
	// Nothing crosses the 1h threshold, so the ring holds exactly the
	// deterministic 1-in-100 sample of the fleet's statements.
	wantSampled := (total + 99) / 100
	if got := int64(slow.Len()); got != wantSampled {
		return nil, fmt.Errorf("slow log holds %d entries, want %d sampled", got, wantSampled)
	}
	for _, line := range srv.Tuner().Verdicts() {
		if strings.HasPrefix(line, "FATAL") {
			return nil, fmt.Errorf("tuner aborted: %s", line)
		}
	}

	if err := jrn.Close(); err != nil {
		return nil, fmt.Errorf("journal: %v", err)
	}
	records, err := audit.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("journal: %v", err)
	}
	traced, err := auditAdoptions(records)
	if err != nil {
		return nil, err
	}
	normalized, err := normalizeJournal(records)
	if err != nil {
		return nil, err
	}
	seriesJSON, err := series.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("timeseries: %v", err)
	}

	t := srv.Tuner()
	return &ServeRunResult{
		Workers:         workers,
		Statements:      res.Statements,
		Rows:            res.Rows,
		Verdicts:        res.Verdicts,
		Journal:         normalized,
		IndexKeys:       automationIndexKeys(db),
		Adoptions:       t.Cycle.Adoptions,
		Reverted:        t.Cycle.Reverted,
		DrainSeconds:    reg.Histogram("server.drain_seconds").Sum(),
		TimeSeries:      seriesJSON,
		TracedAdoptions: traced,
	}, nil
}

// auditAdoptions asserts the zero-ungated-adoptions invariant from the
// journal itself: every adopt record must close a complete lineage —
// candidate, selecting rank decision and an accepting shadow verdict, all
// before the adoption. It returns how many adopted indexes additionally
// resolved to concrete traced statement IDs via the preceding window record.
func auditAdoptions(records []*audit.Record) (int, error) {
	seen := map[string]bool{}
	traced := 0
	for _, r := range records {
		if r.Event != audit.EventAdopt || seen[r.IndexKey] {
			continue
		}
		seen[r.IndexKey] = true
		lin, err := audit.Explain(records, r.IndexKey)
		if err != nil {
			return 0, fmt.Errorf("lineage %s: %v", r.IndexKey, err)
		}
		if !lin.Complete() {
			return 0, fmt.Errorf("ungated adoption: %s has an incomplete lineage (candidates=%d ranks=%d shadows=%d)",
				r.IndexKey, len(lin.Candidates), len(lin.Ranks), len(lin.Shadows))
		}
		if len(lin.WindowStatements) > 0 && strings.HasPrefix(lin.WindowStatements[0], "t-") {
			traced++
		}
	}
	return traced, nil
}

// normalizeJournal re-renders records with wall-clock timestamps and span
// IDs zeroed: both vary run to run (span IDs are allocation-order-dependent
// under concurrency) without carrying decision content.
func normalizeJournal(records []*audit.Record) ([]string, error) {
	out := make([]string, len(records))
	for i, r := range records {
		c := *r
		c.TSUS = 0
		c.SpanID = 0
		b, err := json.Marshal(&c)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
