package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/telemetry"
)

// Loop is the one driver behind the scenario suite and its fault and worker
// axes. Each cycle of Run advances the scenario, draws one window of
// statements, deals it to Clients sessions and runs one tuning cycle over
// what executed — through the daemon's own server.Tuner, on one of two
// transports. Offline (NewLoop) the loop executes the statements itself,
// builds the window records a session would have observed and calls
// CycleWindow on a bare tuner (no statement gate: nothing else touches the
// database). Live (NewLiveLoop) a real server listens on loopback, each
// session is a TCP connection sending its share concurrently, and OpTune on
// a control connection follows the barrier.
//
// Dealing is client-major: statement k of a window goes to session
// k / perSession, so draw order is the canonical (session, seq) order the
// collector seals and both transports hand the tuner the same window — with
// more than one session only while no statement writes (see
// scenarios.Profile.Sessions). Nothing of a cycle is drawn before the
// cycle's Advance has returned: Advance and Sample share R.
type Loop struct {
	// Tuner is what the loop cycles, over Tuner.DB: its policy and OnCycle
	// are set before the first Run, its counters read after the last.
	Tuner *server.Tuner
	// Sample draws the next workload statement for the given cycle.
	Sample func(cycle int, r *rand.Rand) string
	// Advance, when set, runs scenario side effects (schema migrations, load
	// surges) at the start of each cycle, holding the statement gate's write
	// side: Tuner.Write, the locker the cycle applies and reverts under (nil
	// offline).
	Advance func(db *engine.DB, cycle int, r *rand.Rand) error
	R       *rand.Rand
	// Clients is the number of sessions a window is dealt to (<= 1: one).
	Clients int

	// Verdicts is each cycle's verdict line; its length is the cycle counter.
	Verdicts []string
	// WindowCPU is each window's modelled CPU (offline only: the wire does
	// not carry execution statistics).
	WindowCPU []float64
	// Statements and Rows count executed statements and the rows they
	// returned; Errors has one line per failed statement, which contributed
	// no load and is in no window.
	Statements, Rows int64
	Errors           []string

	seq []uint64 // offline: per-session statement counters

	// The live transport: the server, one client per session with the
	// control connection last, and the recorder (reg is the server's
	// registry: the database's own when it has one; metrics holds a
	// "# round N" line and the registry's exposition after each cycle).
	srv     *server.Server
	clients []*server.Client
	reg     *obs.Registry
	slow    *obs.SlowLog
	metrics bytes.Buffer
}

// NewLoop returns an offline loop over db with one session.
func NewLoop(db *engine.DB, cfg core.Config, det *regression.Detector, r *rand.Rand) *Loop {
	tuner := &server.Tuner{DB: db, Adv: core.NewAdvisor(db, cfg), Detector: det, Gate: shadow.DefaultGate()}
	return &Loop{Tuner: tuner, R: r}
}

// NewLiveLoop boots a server for db on an ephemeral loopback port and
// connects the sessions and the control connection. The recorder is fully on
// — slow-query capture with a threshold no loopback statement crosses (so
// the ring is pure deterministic 1-in-100 sampling) and the registry's
// exposition recorded after every cycle — so every live run also certifies
// that the recorder never perturbs tuning. The caller must Close the loop.
func NewLiveLoop(db *engine.DB, cfg core.Config, det *regression.Detector, r *rand.Rand, clients int) (*Loop, error) {
	reg := db.ObsRegistry()
	if reg == nil { // Close reads the server's gauges
		reg = obs.NewRegistry()
	}
	l := &Loop{R: r, Clients: max(clients, 1), reg: reg, slow: obs.NewSlowLog(256, time.Hour, 100)}
	l.slow.Instrument(reg)
	// Every session plus the control connection must be admitted at once — a
	// bounded accept that parks one of them would deadlock the barrier.
	// WindowStatements stays 0: the barriers own the cycle boundaries, which
	// is what makes window membership deterministic.
	l.srv = server.New(server.Options{
		DB: db, AdvisorCfg: &cfg, Detector: det, Obs: reg, SlowLog: l.slow, MaxConns: l.Clients + 2,
	})
	l.Tuner = l.srv.Tuner()
	addr, err := l.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for c := 0; c <= l.Clients && err == nil; c++ {
		var cl *server.Client
		if cl, err = server.Dial(addr, 0); err == nil {
			l.clients = append(l.clients, cl)
			if c < l.Clients { // the control connection stays unlabelled
				err = cl.Hello(sessionLabel(c))
			}
		}
	}
	if err != nil {
		l.Close() //nolint:errcheck // the connect error is the one to report
		return nil, err
	}
	return l, nil
}

// sessionLabel is the label session c declares. The zero-padded index keeps
// the canonical window order equal to session index order.
func sessionLabel(c int) string { return fmt.Sprintf("lg-%04d", c) }

// traceID is the trace ID of statement i of session c's share of a cycle — a
// pure function of position, so both transports journal the same IDs.
func traceID(c, cycle, i int) string { return fmt.Sprintf("t-%04d-%d-%d", c, cycle, i) }

// Run drives cycles more tuning cycles of windowStatements statements each.
func (l *Loop) Run(cycles, windowStatements int) error {
	for i := 0; i < cycles; i++ {
		cycle := len(l.Verdicts)
		if err := l.runCycle(cycle, windowStatements); err != nil {
			return fmt.Errorf("cycle %d: %v", cycle, err)
		}
	}
	return nil
}

// runCycle advances the scenario, draws a window of windowStatements
// statements, executes it on the loop's transport, runs one tuning cycle
// over it and cross-checks catalog against store: whichever phase a fault
// interrupted, no cycle may leave a partial index visible.
func (l *Loop) runCycle(cycle, windowStatements int) error {
	if l.Advance != nil {
		if err := l.advance(cycle); err != nil {
			return fmt.Errorf("advance: %v", err)
		}
	}
	stmts := make([]string, windowStatements)
	for i := range stmts {
		stmts[i] = l.Sample(cycle, l.R)
	}
	clients := max(l.Clients, 1)
	run := l.runOffline
	if l.srv != nil {
		run = l.runLive
	}
	line, err := run(cycle, stmts, (len(stmts)+clients-1)/clients)
	if err != nil {
		return err
	}
	l.Verdicts = append(l.Verdicts, line)
	return checkLoopInvariants(l.Tuner.DB)
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

func (l *Loop) advance(cycle int) error {
	if w := l.Tuner.Write; w != nil {
		w.Lock()
		defer w.Unlock()
	}
	return l.Advance(l.Tuner.DB, cycle, l.R)
}

// runOffline executes the window in draw order and hands the tuner the
// records the sessions would have observed.
func (l *Loop) runOffline(cycle int, stmts []string, per int) (string, error) {
	if l.seq == nil {
		l.seq = make([]uint64, max(l.Clients, 1))
	}
	w := make([]server.Record, 0, len(stmts))
	cpu := 0.0
	for k, sql := range stmts {
		c, trace := k/per, traceID(k/per, cycle, k%per)
		l.seq[c]++ // a session numbers every statement it is sent
		res, err := l.Tuner.DB.Exec(sql)
		if err != nil {
			l.Errors = append(l.Errors, fmt.Sprintf("%s: %v", trace, err))
			continue
		}
		l.Statements++
		l.Rows += int64(len(res.Rows))
		cpu += res.Stats.CPUSeconds()
		w = append(w, server.RecordOf(sessionLabel(c), l.seq[c], trace, sql, res))
	}
	l.WindowCPU = append(l.WindowCPU, cpu)
	server.SortWindow(w)
	return l.Tuner.CycleWindow(w)
}

// runLive sends every session its share concurrently, waits for all of them
// to be answered, and triggers the tuning cycle on the control connection.
func (l *Loop) runLive(cycle int, stmts []string, per int) (string, error) {
	var wg sync.WaitGroup
	var mu sync.Mutex // guards the loop's counters
	for c, cl := range l.clients[:l.Clients] {
		lo := min(c*per, len(stmts))
		share := stmts[lo:min(lo+per, len(stmts))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, sql := range share {
				trace := traceID(c, cycle, i)
				res, err := cl.QueryTraced(trace, sql)
				mu.Lock()
				if err != nil {
					l.Errors = append(l.Errors, fmt.Sprintf("%s: %v", trace, err))
				} else {
					l.Statements++
					l.Rows += int64(len(res.Rows))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	line, err := l.clients[l.Clients].Tune()
	fmt.Fprintf(&l.metrics, "# round %d\n", cycle)
	telemetry.WritePrometheus(&l.metrics, l.reg.Snapshot())
	return line, err
}

// Close ends a live loop — hang up, drain the server — and reports what a
// healthy run never leaves behind: a failed statement, a forced connection,
// an open session, an unsealed statement, a latched tuner, or a recorder that
// saw a different statement count than the sessions were answered. Offline
// it does nothing (a failed statement offline is simply not observed).
func (l *Loop) Close() error {
	if l.srv == nil {
		return nil
	}
	for _, cl := range l.clients {
		cl.Close() //nolint:errcheck // nothing buffered; the drain check below is what matters
	}
	if err := l.srv.Shutdown(); err != nil {
		return fmt.Errorf("dirty drain: %v", err)
	}
	if len(l.Errors) > 0 {
		return fmt.Errorf("%d statement errors, first: %s", len(l.Errors), l.Errors[0])
	}
	if open := l.reg.Gauge("server.connections_open").Value(); open != 0 {
		return fmt.Errorf("connections_open = %d after drain", open)
	}
	if n := l.srv.Collector().Buffered(); n != 0 {
		return fmt.Errorf("%d statements left unsealed after drain", n)
	}
	for _, line := range l.Tuner.Verdicts() {
		if strings.HasPrefix(line, "FATAL") {
			return fmt.Errorf("tuner aborted: %s", line)
		}
	}
	if got := l.reg.Counter("slowlog.observed").Value(); got != l.Statements {
		return fmt.Errorf("slow log observed %d statements, sessions were answered %d", got, l.Statements)
	}
	// Nothing crosses the threshold, so the ring holds exactly the 1-in-100
	// sample (it has room for 25 600 statements' worth).
	if got, want := int64(l.slow.Len()), (l.Statements+99)/100; got != want {
		return fmt.Errorf("slow log holds %d entries, want %d sampled", got, want)
	}
	return nil
}
