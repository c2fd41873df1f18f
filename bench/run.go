package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/server"
)

// scale sizes a run. fullScale is what BENCHMARK.json's numbers are taken
// at; the smoke test shrinks everything.
type scale struct {
	events       int // fixture A rows of the serving workloads
	narrowEvents int // fixture A rows of tune_narrow
	productRows  int // rows per table of tune_wide
	setups       int // set-ups per run; setup_s is their median
	div          int // divides the warm-up and traced statement counts
	// Fewer samples than these in the measured window fail the run.
	minReads, minWrites, minCycles int
	// maxCPURatio is what the reference sample's modelled CPU after adoption
	// may be of its cost before, on the tune workloads.
	maxCPURatio float64
}

var fullScale = scale{
	events: 200000, narrowEvents: 50000, productRows: 800,
	setups: 3, div: 1,
	minReads: 1000, minWrites: 200, minCycles: 20,
	maxCPURatio: 0.5,
}

// spec describes one traffic mix and how it is driven.
type spec struct {
	name string
	// tune selects the episode protocol (fresh server on a clone, one
	// adopting cycle) over the serving protocol (one server, an idle cycle
	// every tuneEvery).
	tune  bool
	build func(seed int64, sc scale) (*fixture, error)
	gen   func(f *fixture, r *rand.Rand, client int) stream
	// warmup is the discarded statement count per client (serving), or the
	// number of discarded episodes (tune). It is part of set-up.
	warmup int
	// pre and post are statements per client before the cycle is requested
	// and after its verdict (tune).
	pre, post int
	// window is the number of statements in the traced pass's tuning
	// window on a serving workload: what the collector holds when OpTune
	// arrives, a period's worth of statements up to its 4096-record buffer.
	// A tune workload's window is what both clients sent before the cycle.
	window int
	// traceStmts is the size of the traced pass's statement sample.
	traceStmts int
}

func (w *spec) windowStmts() int {
	if w.tune {
		return clients * w.pre
	}
	return w.window
}

// servingFixture is fixture A with its three secondary indexes.
func servingFixture(seed int64, sc scale) (*fixture, error) {
	return buildEvents(seed, sc.events, true)
}

var workloads = []spec{
	{name: "point_read", gen: pointRead, warmup: 10000, window: 4096, traceStmts: 5000,
		build: servingFixture},
	{name: "scan_read", gen: scanRead, warmup: 900, window: 384, traceStmts: 2000,
		build: servingFixture},
	{name: "mixed_rw", gen: mixedRW, warmup: 9000, window: 4096, traceStmts: 5000,
		build: servingFixture},
	{name: "tune_narrow", tune: true, gen: tuneNarrow, warmup: 2, pre: 100, post: 1000, traceStmts: 2000,
		build: func(seed int64, sc scale) (*fixture, error) { return buildEvents(seed, sc.narrowEvents, false) }},
	{name: "tune_wide", tune: true, gen: tuneWide, warmup: 2, pre: 400, post: 600, traceStmts: 5000,
		build: func(seed int64, sc scale) (*fixture, error) { return buildProduct(sc.productRows) }},
}

func workloadByName(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// tuneEvery is the period of the control connection's OpTune on the
// serving workloads.
const tuneEvery = 250 * time.Millisecond

// refStmts is the size of the fixed read sample whose modelled CPU is
// compared before and after adoption on the tune workloads.
const refStmts = 200

// client is one closed-loop connection's state: its statement stream, which
// outlives connections, and what it has observed.
type client struct {
	next    stream
	conn    *server.Client
	epoch   time.Time
	samples []sample
	// attempted and failed count statements; a reply that contradicts the
	// fixture's tallies counts as failed. firstErr keeps the first reason.
	attempted, failed int
	inserted, deleted int
	firstErr          string
}

// do sends the client's next statement, checks the reply, and records the
// round trip when record is set.
func (c *client) do(record bool) {
	s := c.next()
	t0 := time.Now()
	res, err := c.conn.Query(s.sql)
	dur := time.Since(t0)
	c.attempted++
	if err == nil {
		err = checkReply(s, res)
	}
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("%s: %v", s.sql, err)
		}
		return
	}
	switch {
	case s.kind == writeInsert:
		c.inserted++
	case s.kind == writeDelete && res.Affected == 1:
		c.deleted++
	}
	if record {
		c.samples = append(c.samples, sample{int64(t0.Sub(c.epoch)), int64(dur), s.kind.isWrite()})
	}
}

// checkReply compares a reply with what the fixture says it must be.
func checkReply(s stmt, res *server.Result) error {
	switch s.kind {
	case readExact:
		if len(res.Rows) != s.want {
			return fmt.Errorf("got %d rows, want %d", len(res.Rows), s.want)
		}
	case readCounts:
		var n int64
		for _, row := range res.Rows {
			n += row[1].Int()
		}
		if n != int64(s.want) {
			return fmt.Errorf("counts sum to %d, want %d", n, s.want)
		}
	case writeOne, writeInsert:
		if res.Affected != 1 {
			return fmt.Errorf("affected %d rows, want 1", res.Affected)
		}
	}
	return nil
}

// result is what one measured run of one workload produced.
type result struct {
	setupS            []float64 // one per set-up
	window            float64   // measured seconds
	stmtPerS          float64
	samples           []sample
	cycles            []interval
	heapMB            float64
	attempted, failed int
	problems          []string // failed correctness checks
	cpuModelRatio     float64  // tune workloads: reference sample after ÷ before
	degraded          int      // cycles whose verdict was degraded
	// fix is the fixture the window ran against, kept for the traced pass.
	fix *fixture
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// newClients makes the clients' streams from the seed.
func newClients(w *spec, f *fixture, seed int64) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{next: w.gen(f, rand.New(rand.NewSource(clientSeed(seed, i))), i)}
	}
	return cs
}

// connect starts a server on db and dials the clients and the control
// connection.
func connect(db *engine.DB, cfg core.Config, cs []*client) (*server.Server, *server.Client, error) {
	srv := server.New(server.Options{DB: db, AdvisorCfg: &cfg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	dial := func(label string) (*server.Client, error) {
		conn, err := server.Dial(addr, 0)
		if err != nil {
			return nil, err
		}
		return conn, conn.Hello(label)
	}
	for i, c := range cs {
		if c.conn, err = dial(fmt.Sprintf("bench-%04d", i)); err != nil {
			return nil, nil, err
		}
	}
	control, err := dial("bench-ctl")
	return srv, control, err
}

// disconnect closes the connections and drains the server; a drain that
// had to force a connection closed is a correctness failure.
func disconnect(srv *server.Server, control *server.Client, cs []*client) error {
	control.Close()
	for _, c := range cs {
		c.conn.Close()
	}
	return srv.Shutdown()
}

// advisorConfig is the server's default advisor configuration; with
// exhausted set, an index budget of one byte: every cycle still ingests
// its window, generates and costs candidates and runs the knapsack, but can
// adopt nothing, so the physical design of a serving workload never moves.
func advisorConfig(exhausted bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	if exhausted {
		cfg.BudgetBytes = 1
	}
	return cfg
}

// liveHeapMB is the heap in use after a full collection, less the
// clients' recorded samples: the benchmark shares the server's process, and
// its own arrays grow with the statement rate.
func liveHeapMB(cs []*client) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	own := 0
	for _, c := range cs {
		own += cap(c.samples) * int(unsafe.Sizeof(sample{}))
	}
	return float64(m.HeapAlloc-uint64(own)) / (1 << 20)
}

// succeeded is the number of statements the clients have had answered
// correctly so far.
func succeeded(cs []*client) int {
	n := 0
	for _, c := range cs {
		n += c.attempted - c.failed
	}
	return n
}

// parallel runs fn once per client, concurrently, and waits.
func parallel(cs []*client, fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// runServing measures a serving workload: sc.setups set-ups (fixture,
// indexes, statistics, server, connections, warm-up), then on the last one
// a window of the given length with both clients in a closed loop and an
// idle tuning cycle every tuneEvery.
func runServing(w *spec, seed int64, seconds float64, sc scale) (*result, error) {
	res := &result{cpuModelRatio: 1}
	var (
		srv     *server.Server
		control *server.Client
		cs      []*client
	)
	for i := 0; i < sc.setups; i++ {
		if srv != nil {
			if err := disconnect(srv, control, cs); err != nil {
				return nil, err
			}
			srv, control, cs, res.fix = nil, nil, nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		fix, err := w.build(seed, sc)
		if err != nil {
			return nil, err
		}
		cs = newClients(w, fix, seed)
		if srv, control, err = connect(fix.db, advisorConfig(true), cs); err != nil {
			return nil, err
		}
		parallel(cs, func(c *client) {
			for n := w.warmup / sc.div; n > 0; n-- {
				c.do(false)
			}
		})
		if _, err := control.Tune(); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		res.fix = fix
	}

	epoch := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	for _, c := range cs {
		c.epoch = epoch
	}
	var tuneErrs int
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(tuneEvery)
		defer tick.Stop()
		for {
			<-tick.C
			if time.Since(epoch) >= window {
				return
			}
			t0 := time.Now()
			line, err := control.Tune()
			res.cycles = append(res.cycles, interval{int64(t0.Sub(epoch)), int64(time.Since(epoch))})
			switch {
			case err != nil:
				tuneErrs++
				res.problemf("tune: %v", err)
			case !strings.Contains(line, "no_candidates"):
				res.problemf("serving cycle changed the design: %s", line)
			}
		}
	}()
	parallel(cs, func(c *client) {
		for time.Since(epoch) < window {
			c.do(true)
		}
	})
	res.window = time.Since(epoch).Seconds()
	<-done

	res.heapMB = liveHeapMB(cs)
	inserted, deleted := 0, 0
	for _, c := range cs {
		res.samples = append(res.samples, c.samples...)
		c.samples = nil
		inserted += c.inserted
		deleted += c.deleted
	}
	res.stmtPerS = float64(len(res.samples)) / res.window
	out, err := res.fix.db.Exec("SELECT COUNT(*) FROM events")
	if err != nil {
		return nil, err
	}
	if got, want := out.Rows[0][0].Int(), int64(res.fix.events+inserted-deleted); got != want {
		res.problemf("events holds %d rows, want %d", got, want)
	}
	res.tally(cs, len(res.cycles), tuneErrs)
	if err := disconnect(srv, control, cs); err != nil {
		res.problemf("drain: %v", err)
	}
	return res, nil
}

// tally sums the clients' attempts and failures and adds the cycles'.
func (r *result) tally(cs []*client, cycles, cycleFailures int) {
	r.attempted, r.failed = cycles, cycleFailures
	for _, c := range cs {
		r.attempted += c.attempted
		r.failed += c.failed
		if c.firstErr != "" {
			r.problemf("statement: %s", c.firstErr)
		}
	}
}

// episode is what one tune episode produced.
type episode struct {
	cycle    interval
	verdict  string
	stmtPerS float64
}

// runEpisode clones the pristine database, serves the clone, lets every
// client send w.pre statements, requests one tuning cycle while they keep
// sending, and ends w.post statements per client after the verdict.
// beforeShutdown, when set, sees the tuned database with the server still
// up.
func runEpisode(w *spec, pristine *engine.DB, cs []*client, record bool, beforeShutdown func(db *engine.DB)) (*episode, error) {
	db := pristine.Clone("episode")
	defer db.Release()
	srv, control, err := connect(db, advisorConfig(false), cs)
	if err != nil {
		return nil, err
	}
	var (
		pre   sync.WaitGroup
		tuned atomic.Bool
	)
	pre.Add(len(cs))
	ep := &episode{}
	var tuneErr error
	requested, done := make(chan struct{}), make(chan struct{})
	start, before := time.Now(), succeeded(cs)
	go func() {
		defer close(done)
		// A client that is through its w.pre statements waits for the other,
		// so that the window the cycle sees is those statements and at most
		// the few that overtake the request.
		pre.Wait()
		close(requested)
		t0 := time.Now()
		ep.verdict, tuneErr = control.Tune()
		ep.cycle = interval{int64(t0.Sub(cs[0].epoch)), int64(time.Since(cs[0].epoch))}
		tuned.Store(true)
	}()
	parallel(cs, func(c *client) {
		for i := 0; i < w.pre; i++ {
			c.do(record)
		}
		pre.Done()
		<-requested
		for !tuned.Load() {
			c.do(record)
		}
		for i := 0; i < w.post; i++ {
			c.do(record)
		}
	})
	ep.stmtPerS = float64(succeeded(cs)-before) / time.Since(start).Seconds()
	<-done
	if beforeShutdown != nil {
		beforeShutdown(db)
	}
	if err := disconnect(srv, control, cs); err != nil {
		return nil, fmt.Errorf("drain: %v", err)
	}
	return ep, tuneErr
}

// referenceCPU executes the reference read sample directly on db and
// returns its modelled CPU seconds.
func referenceCPU(db *engine.DB, ref []string) (float64, error) {
	var cpu float64
	for _, sql := range ref {
		out, err := db.Exec(sql)
		if err != nil {
			return 0, err
		}
		cpu += out.Stats.CPUSeconds()
	}
	return cpu, nil
}

// runTune measures a tune workload: sc.setups set-ups (pristine fixture
// without secondary indexes, the reference sample's cost on it, w.warmup
// discarded episodes), then episodes for the given time. Every episode must
// adopt at least one index.
func runTune(w *spec, seed int64, seconds float64, sc scale) (*result, error) {
	res := &result{}
	var (
		cs     []*client
		ref    []string
		before float64
	)
	for i := 0; i < sc.setups; i++ {
		res.fix, cs = nil, nil
		runtime.GC()
		t0 := time.Now()
		fix, err := w.build(seed, sc)
		if err != nil {
			return nil, err
		}
		cs = newClients(w, fix, seed)
		ref = ref[:0]
		for next := w.gen(fix, rand.New(rand.NewSource(clientSeed(seed, clients))), clients); len(ref) < refStmts; {
			if s := next(); !s.kind.isWrite() {
				ref = append(ref, s.sql)
			}
		}
		if before, err = referenceCPU(fix.db, ref); err != nil {
			return nil, err
		}
		for n := 0; n < w.warmup; n++ {
			if _, err := runEpisode(w, fix.db, cs, false, nil); err != nil {
				return nil, err
			}
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		res.fix = fix
	}

	epoch := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	for _, c := range cs {
		c.epoch = epoch
		c.attempted, c.failed = 0, 0
	}
	var rates []float64
	failedEpisodes := 0
	for last, took := false, time.Duration(0); !last; {
		// The episode expected to cross the end of the window is the last;
		// it also measures the heap and the reference sample.
		last = time.Since(epoch)+took >= window
		var final func(db *engine.DB)
		if last {
			final = func(db *engine.DB) {
				res.heapMB = liveHeapMB(cs)
				after, err := referenceCPU(db, ref)
				if err != nil {
					res.problemf("reference sample: %v", err)
				}
				res.cpuModelRatio = after / before
			}
		}
		t0 := time.Now()
		ep, err := runEpisode(w, res.fix.db, cs, true, final)
		took = time.Since(t0)
		if ep == nil {
			return nil, err
		}
		res.cycles = append(res.cycles, ep.cycle)
		rates = append(rates, ep.stmtPerS)
		if strings.Contains(ep.verdict, "degraded") {
			res.degraded++
		}
		if err != nil || !strings.Contains(ep.verdict, "adopted=") {
			failedEpisodes++
			res.problemf("episode %d adopted nothing: %q %v", len(res.cycles), ep.verdict, err)
		}
	}
	res.window = time.Since(epoch).Seconds()
	for _, c := range cs {
		res.samples = append(res.samples, c.samples...)
		c.samples = nil
	}
	res.stmtPerS = median(rates)
	if res.cpuModelRatio > sc.maxCPURatio {
		res.problemf("reference sample's modelled CPU fell only to %.2f of its cost before adoption", res.cpuModelRatio)
	}
	res.tally(cs, len(res.cycles), failedEpisodes)
	return res, nil
}
