package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the tracer's epoch; Parent is the
// index of the enclosing span (-1 for a root); Stmt identifies the
// statement (or tuning repetition) all spans of one request share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, stmt int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Stmt: stmt, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// durations returns every span of the name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// meanUS is the mean duration in microseconds of the name's spans, taken
// over stmts statements: a layer that a statement does not enter (planning
// a write) counts as zero for it, so the layers' means add up.
func (t *tracer) meanUS(name string, stmts int) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum * 1e3 / float64(stmts)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := out.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tuneReps is how often the tuning pass repeats the cycle and its phases;
// the medians are reported.
const tuneReps = 5

// perLayer is the traced pass. It takes the stall metrics from the window
// just measured, then, on a database in the state the window started from,
// times one tuning cycle and each of its phases on a recorded window
// (tuning pass) and each layer a statement crosses on a fixed statement
// sample (serving pass). Every count it reports depends on the seed alone.
func perLayer(w *spec, res *result, seed int64, sc scale, traceOut string) ([]metric, error) {
	inCycle, longest := overlapping(res.samples, res.cycles)
	ms := []metric{
		{"server.stall_p50_ms", median(longest), "ms", len(longest)},
		{"server.read_p95_in_cycle_us", percentile(inCycle, 0.95), "us", len(inCycle)},
	}

	fix := res.fix
	if !w.tune {
		// The measured window wrote to its database; start again.
		res.fix = nil
		var err error
		if fix, err = w.build(seed, sc); err != nil {
			return nil, err
		}
	}
	tr := &tracer{epoch: time.Now()}

	// Window and sample come from the start of the clients' streams: the
	// window is what the clients send first, the sample what the first client
	// sends next.
	cs := newClients(w, fix, seed)
	window, err := recordWindow(fix.db, cs, w.windowStmts())
	if err != nil {
		return nil, err
	}
	tuned, tuning, err := tuningPass(tr, fix.db, advisorConfig(!w.tune), window, max(1, tuneReps/sc.div))
	if err != nil {
		return nil, err
	}
	defer tuned.Release()
	serving, err := servingPass(tr, cs[0].next, w.traceStmts/sc.div, tuned, len(window))
	if err != nil {
		return nil, err
	}
	ms = append(ms, serving...)
	ms = append(ms, tuning...)
	ms = append(ms,
		metric{"tuner.degraded_cycles", float64(res.degraded), "count", len(res.cycles)},
		metric{"advisor.cpu_model_ratio", res.cpuModelRatio, "ratio", refStmts},
	)
	if traceOut == "" {
		traceOut = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	}
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(tr.spans), traceOut)
	return ms, nil
}

// recordWindow executes the clients' next size statements on a scratch
// clone and returns them as the sealed window the collector would hand the
// tuner: per client, in issue order, with the engine's statistics.
func recordWindow(db *engine.DB, cs []*client, size int) ([]server.Record, error) {
	scratch := db.Clone("window")
	defer scratch.Release()
	var window []server.Record
	for i, c := range cs {
		for seq := 1; seq <= size/len(cs); seq++ {
			sql := c.next().sql
			out, err := scratch.Exec(sql)
			if err != nil {
				return nil, fmt.Errorf("window: %s: %v", sql, err)
			}
			window = append(window, server.Record{Session: fmt.Sprintf("bench-%04d", i), Seq: uint64(seq), SQL: sql, Stats: out.Stats})
		}
	}
	server.SortWindow(window)
	return window, nil
}

// phases runs one tuning cycle on db phase by phase, the way server.Tuner
// runs it, with a span per phase under a root span, and returns the root.
func phases(tr *tracer, rep int, db *engine.DB, cfg core.Config, window []server.Record) (root int, mon *workload.Monitor, rec *core.Recommendation, replays int, err error) {
	adv := core.NewAdvisor(db, cfg)
	det := regression.NewDetector(0.5)
	root = tr.begin("tuner.phases", -1, rep)
	defer tr.end(root)
	phase := func(name string, fn func() error) error {
		id := tr.begin(name, root, rep)
		defer tr.end(id)
		return fn()
	}
	err = phase("workload.ingest", func() error {
		mon = workload.NewMonitor()
		for i := range window {
			stmt, err := sqlparser.Parse(window[i].SQL)
			if err != nil {
				return err
			}
			if err := mon.RecordStmt(stmt, window[i].Stats); err != nil {
				return err
			}
			sqlparser.Normalize(stmt)
		}
		return nil
	})
	if err != nil {
		return
	}
	err = phase("core.recommend", func() (err error) {
		rec, err = adv.Recommend(mon)
		return err
	})
	if err != nil {
		return
	}
	if len(rec.Create) > 0 {
		var report *shadow.Report
		err = phase("shadow.validate", func() (err error) {
			report, err = shadow.Validate(db, rec.Create, mon, shadow.DefaultGate())
			return err
		})
		if err != nil {
			return
		}
		for _, o := range report.Outcomes {
			replays += o.Replays
		}
		if report.Accepted {
			err = phase("core.apply", func() error {
				_, err := adv.Apply(&core.Recommendation{Create: rec.Create})
				return err
			})
			if err != nil {
				return
			}
		}
	}
	err = phase("regression.observe", func() error {
		det.Observe(db, mon)
		return nil
	})
	return
}

// tuningPass runs reps cycles of the offline tuner on the window, each
// on its own clone of db, and beside each the cycle's phases called
// directly on another clone. It returns the last cycle's database (tuned,
// when the cycle adopted) for the serving pass.
func tuningPass(tr *tracer, db *engine.DB, cfg core.Config, window []server.Record, reps int) (*engine.DB, []metric, error) {
	var (
		tuned                          *engine.DB
		ratios                         []float64
		adopted                        int
		rec                            *core.Recommendation
		mon                            *workload.Monitor
		replays                        int
		whatif, clone, build, cacheHit []float64
	)
	for rep := 0; rep < reps; rep++ {
		var cycleID, root int
		cycle := func() error {
			if tuned != nil {
				tuned.Release()
			}
			tuned = db.Clone("cycle")
			tuner := &server.Tuner{DB: tuned, Adv: core.NewAdvisor(tuned, cfg), Detector: regression.NewDetector(0.5), Gate: shadow.DefaultGate()}
			runtime.GC()
			cycleID = tr.begin("tuner.cycle", -1, rep)
			verdict, err := tuner.CycleWindow(window)
			tr.end(cycleID)
			if strings.Contains(verdict, "adopted=") {
				adopted++
			}
			return err
		}
		byPhase := func() (err error) {
			scratch := db.Clone("phases")
			defer scratch.Release()
			runtime.GC()
			root, mon, rec, replays, err = phases(tr, rep, scratch, cfg, window)
			return err
		}
		// Whichever runs second finds the data warm; take turns.
		first, second := cycle, byPhase
		if rep%2 == 1 {
			first, second = byPhase, cycle
		}
		if err := first(); err != nil {
			return nil, nil, err
		}
		if err := second(); err != nil {
			return nil, nil, err
		}
		ratios = append(ratios, float64(tr.children(root))/float64(tr.spans[cycleID].End-tr.spans[cycleID].Start))
		cacheHit = append(cacheHit, rec.Cache.HitRate())

		// Building the recommended indexes alone, on a scratch clone.
		if len(rec.Create) > 0 {
			scratch := db.Clone("build")
			defs := make([]*catalog.Index, len(rec.Create))
			for i, ix := range rec.Create {
				def := *ix
				def.Hypothetical = false
				defs[i] = &def
			}
			runtime.GC()
			t0 := time.Now()
			_, err := scratch.CreateIndexes(defs)
			build = append(build, float64(time.Since(t0))/1e6)
			scratch.Release()
			if err != nil {
				return nil, nil, err
			}
		}
	}
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		db.Clone("clone").Release()
		clone = append(clone, float64(time.Since(t0))/1e3)
	}
	queries := 0
	for _, q := range mon.Queries() {
		queries++
		if sel, ok := q.Stmt.(*sqlparser.Select); ok {
			t0 := time.Now()
			if _, err := db.Optimizer.EstimateSelect(sel, nil); err != nil {
				return nil, nil, err
			}
			whatif = append(whatif, float64(time.Since(t0))/1e3)
		}
	}
	// med is the median of a timing's repetitions; a phase the cycle did not
	// enter reports zero.
	med := func(name, unit string, xs []float64) metric {
		if len(xs) == 0 {
			return metric{name, 0, unit, 0}
		}
		return metric{name, median(xs), unit, len(xs)}
	}
	count := func(name string, n int) metric { return metric{name, float64(n), "count", 1} }
	return tuned, []metric{
		med("tuner.cycle_ms", "ms", tr.durations("tuner.cycle")),
		med("workload.ingest_ms", "ms", tr.durations("workload.ingest")),
		count("workload.window_stmts", len(window)),
		count("workload.window_queries", queries),
		med("core.recommend_ms", "ms", tr.durations("core.recommend")),
		count("core.optimizer_calls", int(rec.OptimizerCalls)),
		count("core.candidates", rec.CandidateCount),
		count("core.created_indexes", len(rec.Create)),
		med("costcache.hit_ratio", "ratio", cacheHit),
		med("optimizer.whatif_us", "us", whatif),
		med("shadow.validate_ms", "ms", tr.durations("shadow.validate")),
		count("shadow.replays", replays),
		med("storage.clone_us", "us", clone),
		med("storage.index_build_ms", "ms", build),
		med("core.apply_ms", "ms", tr.durations("core.apply")),
		med("regression.observe_ms", "ms", tr.durations("regression.observe")),
		med("tuner.phase_sum_ratio", "ratio", ratios),
		{"tuner.adopt_ratio", float64(adopted) / float64(reps), "ratio", reps},
	}, nil
}

// children is the summed duration in nanoseconds of span id's child spans.
func (t *tracer) children(id int) int64 {
	var sum int64
	for _, s := range t.spans[id+1:] {
		if s.Parent == id {
			sum += s.End - s.Start
		}
	}
	return sum
}

// servingPass sends a fixed statement sample through a server, and then
// makes the calls a statement's round trip is made of, one span each,
// directly: parse, normalize, plan, execute, the four wire codecs on the
// real payloads, and the collector. Both start from clones of db, so they
// do the same work.
func servingPass(tr *tracer, next stream, n int, db *engine.DB, window int) ([]metric, error) {
	sample := make([]string, n)
	for i := range sample {
		sample[i] = next().sql
	}

	// Over the wire, one client: each round trip is timed the way the
	// measured window times it, inside a span, so the span's excess over
	// that time is what tracing costs.
	served := db.Clone("serve")
	defer served.Release()
	cs := []*client{{}}
	srv, control, err := connect(served, advisorConfig(true), cs)
	if err != nil {
		return nil, err
	}
	// Each pass starts just after a collection, so that none falls inside
	// it: a sample allocates far less than the heap that is live.
	runtime.GC()
	var untraced time.Duration
	for i, sql := range sample {
		id := tr.begin("server.roundtrip", -1, i)
		t0 := time.Now()
		_, err := cs[0].conn.Query(sql)
		untraced += time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sql, err)
		}
	}
	if err := disconnect(srv, control, cs); err != nil {
		return nil, err
	}
	roundtrip := float64(untraced) / 1e3 / float64(n)

	clone := db.Clone("layers")
	defer clone.Release()
	collector := server.NewCollector(0, nil)
	var rowsRead, rowsSent, pageReads, indexWrites int64
	var cpu float64
	runtime.GC()
	for i, sql := range sample {
		root := tr.begin("layers", -1, i)
		id := tr.begin("sqlparser.parse", root, i)
		stmt, err := sqlparser.Parse(sql)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("sqlparser.normalize", root, i)
		sqlparser.Normalize(stmt)
		tr.end(id)
		sel, isSelect := stmt.(*sqlparser.Select)
		if isSelect {
			id = tr.begin("optimizer.plan", root, i)
			_, _, err = clone.Optimizer.BuildSelectPlan(sel)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		id = tr.begin("engine.exec_stmt", root, i)
		out, err := clone.ExecStmt(stmt)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", sql, err)
		}
		resp := &server.Response{Tag: server.TagOK, Affected: out.Stats.RowsSent}
		if isSelect {
			resp = &server.Response{Tag: server.TagRows, Columns: out.Columns, Rows: out.Rows}
		}
		id = tr.begin("server.wire", root, i)
		_, err = server.DecodeRequest(server.EncodeRequest(server.Request{Op: server.OpQuery, SQL: sql}))
		if err == nil {
			_, err = server.DecodeResponse(server.EncodeResponse(resp))
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("server.collect", root, i)
		collector.Observe(server.Record{Session: "bench-0000", Seq: uint64(i + 1), SQL: sql, Stats: out.Stats})
		if collector.Buffered() >= window {
			collector.Flush()
		}
		tr.end(id)
		tr.end(root)
		rowsRead += out.Stats.RowsRead
		rowsSent += out.Stats.RowsSent
		pageReads += out.Stats.PageReads
		indexWrites += out.Stats.IndexWrites
		cpu += out.Stats.CPUSeconds()
	}

	parse, plan, exec := tr.meanUS("sqlparser.parse", n), tr.meanUS("optimizer.plan", n), tr.meanUS("engine.exec_stmt", n)
	wire, collect := tr.meanUS("server.wire", n), tr.meanUS("server.collect", n)
	per := func(v int64) float64 { return float64(v) / float64(n) }
	return []metric{
		{"sqlparser.parse_us", parse, "us", n},
		{"sqlparser.normalize_us", tr.meanUS("sqlparser.normalize", n), "us", n},
		{"optimizer.plan_us", plan, "us", n},
		{"engine.exec_stmt_us", exec, "us", n},
		{"exec.run_us", exec - plan, "us", n},
		{"exec.rows_read_per_stmt", per(rowsRead), "count", n},
		{"exec.rows_sent_per_stmt", per(rowsSent), "count", n},
		{"btree.page_reads_per_stmt", per(pageReads), "count", n},
		{"exec.cpu_model_us_per_stmt", cpu * 1e6 / float64(n), "us", n},
		{"server.wire_us", wire, "us", n},
		{"server.collect_us", collect, "us", n},
		{"server.roundtrip_us", roundtrip, "us", n},
		{"server.residual_us", roundtrip - parse - exec - wire - collect, "us", n},
		{"storage.index_writes_per_stmt", per(indexWrites), "count", n},
		{"storage.index_mb", float64(clone.TotalIndexBytes()) / (1 << 20), "MiB", 1},
		{"bench.trace_overhead_us", tr.meanUS("server.roundtrip", n) - roundtrip, "us", n},
	}, nil
}
