package exec_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/sqlparser"
	"aim/internal/workloads/products"
)

// The exec benchmark: a products-style database with its DBA index set
// applied and a fixed set of sampled read statements, planned and executed on
// the batch driver and on the reference interpreter. It is the wall-clock
// half of the differential suite — the driver must return what the reference
// defines (checked on every statement before any timing) and must not be
// slower than the tuple-at-a-time loop it replaced. Join statements are
// measured separately: single-table replay is where batching pays, index
// nested-loop joins are where it must at least not cost. A third set replays
// the same join templates on a products database without its indexes, where
// every inner step scans its whole table once per outer row: the shape the
// shadow gate's baseline side replays. A fourth replays filtered full scans
// of an events table without indexes (tune_narrow's templates), where the
// filter kernels are the work.

type execBenchOptions struct {
	Rows           int // total rows across all tables
	Tables         int
	Statements     int // single-table read statements in the replay set
	JoinStatements int // join statements per join set
	ScanRows       int // total rows of the unindexed database
	FilterRows     int // events rows of the unindexed filter set
	Seed           int64
}

// execBenchEntry mirrors one Go benchmark result; one op = one statement.
type execBenchEntry struct {
	NsPerOp    int64 `json:"ns_per_op"`
	Iterations int   `json:"iterations"`
}

type execBenchResult struct {
	Rows, Statements, JoinStatements int

	Reference, Driver                 execBenchEntry // single-table replay
	JoinReference, JoinDriver         execBenchEntry
	JoinScanReference, JoinScanDriver execBenchEntry // joins without indexes
	FilterReference, FilterDriver     execBenchEntry // filtered full scans
}

func speedup(reference, driver execBenchEntry) float64 {
	if driver.NsPerOp == 0 {
		return 1
	}
	return float64(reference.NsPerOp) / float64(driver.NsPerOp)
}

// execBenchSink defeats dead-code elimination across replay iterations.
var execBenchSink int64

type runFunc func(*exec.Plan, []string) (*exec.Result, error)

// replaySet is one database and the statements replayed on it.
type replaySet struct {
	db           *engine.DB
	reads, joins []*sqlparser.Select
}

// buildReplaySet builds a products database of rows rows (with its DBA
// indexes when indexed) and samples up to nReads single-table and nJoins join
// statements from it. Statements are parsed once up front: the benchmark
// times plan + execute, not the parser.
func buildReplaySet(opts execBenchOptions, rows int, indexed bool, nReads, nJoins int) (*replaySet, error) {
	p, err := products.Build(products.Spec{
		Name: "ExecBench", Tables: opts.Tables, JoinQueries: 6,
		Type: products.ReadHeavy, TargetDBA: 12,
		RowsPerTable: rows / opts.Tables, Seed: 100 + opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	if indexed {
		if err := p.ApplyDBAIndexes(); err != nil {
			return nil, err
		}
	}
	set := &replaySet{db: p.DB}
	r := rand.New(rand.NewSource(opts.Seed))
	for attempts := 0; (len(set.reads) < nReads || len(set.joins) < nJoins) && attempts < 10_000; attempts++ {
		sql := p.SampleRead(r)
		isJoin := strings.Contains(sql, "JOIN")
		if isJoin && len(set.joins) >= nJoins || !isJoin && len(set.reads) >= nReads {
			continue
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("execbench: sampled statement %q: %v", sql, err)
		}
		sel, ok := stmt.(*sqlparser.Select)
		if !ok {
			return nil, fmt.Errorf("execbench: sampled read %q is not a SELECT", sql)
		}
		if isJoin {
			set.joins = append(set.joins, sel)
		} else {
			set.reads = append(set.reads, sel)
		}
	}
	if len(set.reads) < nReads || len(set.joins) < nJoins {
		return nil, fmt.Errorf("execbench: sampled only %d/%d single-table and %d/%d join statements",
			len(set.reads), nReads, len(set.joins), nJoins)
	}
	return set, nil
}

// buildFilterSet builds fixture A's events table of rows rows without indexes
// and n statements alternating tune_narrow's two filter templates, every one
// a full scan.
func buildFilterSet(tb testing.TB, rows, n int, seed int64) *replaySet {
	set := &replaySet{db: buildEvents(tb, rows, false)}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("SELECT id, score FROM events WHERE user_id = %d", r.Intn(rows/10))
		if i%2 == 1 {
			sql = fmt.Sprintf("SELECT id, day FROM events WHERE kind = %d AND score > %d", r.Intn(8), 999-r.Intn(20))
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			tb.Fatal(err)
		}
		set.reads = append(set.reads, stmt.(*sqlparser.Select))
	}
	return set
}

func (s *replaySet) run(sel *sqlparser.Select, f runFunc) (*exec.Result, error) {
	plan, _, err := s.db.Optimizer.BuildSelectPlan(sel)
	if err != nil {
		return nil, err
	}
	return f(plan, nil)
}

// parity holds the driver to the reference on every statement of the set
// before anything is timed: byte-identical rows and Stats.
func (s *replaySet) parity(ex *exec.Executor) error {
	for _, sel := range append(append([]*sqlparser.Select(nil), s.reads...), s.joins...) {
		var out [2]string
		for k, f := range []runFunc{ex.RunReference, ex.Run} {
			res, err := s.run(sel, f)
			if err != nil {
				return err
			}
			out[k] = exec.RenderResult(res)
		}
		if out[0] != out[1] {
			return fmt.Errorf("execbench: driver diverges from the reference on %s\n--- reference ---\n%s\n--- driver ---\n%s",
				sel.SQL(), out[0], out[1])
		}
	}
	return nil
}

// measure times the reference and the driver over stmts.
func (s *replaySet) measure(ex *exec.Executor, stmts []*sqlparser.Select) (reference, driver execBenchEntry, err error) {
	var entries [2]execBenchEntry
	for k, f := range []runFunc{ex.RunReference, ex.Run} {
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, runErr := s.run(stmts[i%len(stmts)], f)
				if runErr != nil {
					err = runErr
					b.FailNow()
				}
				execBenchSink += out.Stats.RowsSent
			}
		})
		entries[k] = execBenchEntry{NsPerOp: br.NsPerOp(), Iterations: br.N}
	}
	return entries[0], entries[1], err
}

// runExecBench builds the three databases, holds the driver to the reference
// on every statement, then measures the four pairs.
func runExecBench(tb testing.TB, opts execBenchOptions) (*execBenchResult, error) {
	indexed, err := buildReplaySet(opts, opts.Rows, true, opts.Statements, opts.JoinStatements)
	if err != nil {
		return nil, err
	}
	scan, err := buildReplaySet(opts, opts.ScanRows, false, 0, opts.JoinStatements)
	if err != nil {
		return nil, err
	}
	filter := buildFilterSet(tb, opts.FilterRows, opts.Statements, opts.Seed)
	ex, scanEx, filterEx := exec.New(indexed.db.Store), exec.New(scan.db.Store), exec.New(filter.db.Store)
	for _, p := range []struct {
		set *replaySet
		ex  *exec.Executor
	}{{indexed, ex}, {scan, scanEx}, {filter, filterEx}} {
		if err := p.set.parity(p.ex); err != nil {
			return nil, err
		}
	}
	res := &execBenchResult{Rows: opts.Rows / opts.Tables * opts.Tables,
		Statements: len(indexed.reads), JoinStatements: len(indexed.joins)}
	if res.Reference, res.Driver, err = indexed.measure(ex, indexed.reads); err != nil {
		return nil, err
	}
	if res.JoinReference, res.JoinDriver, err = indexed.measure(ex, indexed.joins); err != nil {
		return nil, err
	}
	if res.JoinScanReference, res.JoinScanDriver, err = scan.measure(scanEx, scan.joins); err != nil {
		return nil, err
	}
	if res.FilterReference, res.FilterDriver, err = filter.measure(filterEx, filter.reads); err != nil {
		return nil, err
	}
	return res, nil
}

// TestBenchExecReport measures replay throughput of the batch driver against
// the reference interpreter on the products workload and records the results
// in BENCH_exec.json at the repo root, only when every floor held.
// Wall-clock sensitive, so it is env-gated out of plain `go test ./...`;
// `make benchexec` invokes it. A passing report also certifies parity on
// every replayed statement.
func TestBenchExecReport(t *testing.T) {
	if os.Getenv("AIM_BENCH_EXEC") == "" {
		t.Skip("set AIM_BENCH_EXEC=1 to run (invoked by make benchexec)")
	}
	res, err := runExecBench(t, execBenchOptions{Rows: 100_000, Tables: 2, Statements: 64, JoinStatements: 8, ScanRows: 20_000, FilterRows: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	replay, join := speedup(res.Reference, res.Driver), speedup(res.JoinReference, res.JoinDriver)
	joinScan := speedup(res.JoinScanReference, res.JoinScanDriver)
	scanFilter := speedup(res.FilterReference, res.FilterDriver)

	// The benchmark keys predate the single executor: "RowEngine" is the
	// reference interpreter, "VecEngine" the driver.
	oneShotNs, preparedNs := measurePlans(t)
	prepared := float64(oneShotNs["point"]) / float64(preparedNs["point"])

	report := struct {
		Rows       int                       `json:"rows"`
		GoVersion  string                    `json:"go_version"`
		GOMAXPROCS int                       `json:"gomaxprocs"`
		Benchmarks map[string]execBenchEntry `json:"benchmarks"`
		// Plan is ns per planned statement, per planbench case and, under
		// "point", the mean over the two point_read templates the gate is on.
		Plan    map[string]map[string]int64 `json:"plan"`
		Speedup map[string]float64          `json:"speedup"`
	}{
		Rows:       res.Rows,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]execBenchEntry{
			"ReplayRowEngine":     res.Reference,
			"ReplayVecEngine":     res.Driver,
			"ReplayJoinRowEngine": res.JoinReference,
			"ReplayJoinVecEngine": res.JoinDriver,
			// Joins on the products database without its indexes.
			"ReplayJoinScanRowEngine": res.JoinScanReference,
			"ReplayJoinScanVecEngine": res.JoinScanDriver,
			// Filtered full scans of the events table without indexes.
			"ReplayScanFilterRowEngine": res.FilterReference,
			"ReplayScanFilterVecEngine": res.FilterDriver,
		},
		Plan:    map[string]map[string]int64{"oneshot_ns": oneShotNs, "prepared_ns": preparedNs},
		Speedup: map[string]float64{"replay": replay, "join_replay": join, "join_scan_replay": joinScan, "scan_filter_replay": scanFilter, "prepared_vs_oneshot": prepared},
	}
	t.Logf("replay: %.2fx the reference over %d statements (%d rows); joins: %.2fx over %d statements, %.2fx unindexed; unindexed filtered scans: %.2fx (%d -> %d ns); planning a point read on a memo hit: %.2fx one-shot (%d -> %d ns)",
		replay, res.Statements, res.Rows, join, res.JoinStatements, joinScan, scanFilter, res.FilterReference.NsPerOp, res.FilterDriver.NsPerOp,
		prepared, oneShotNs["point"], preparedNs["point"])
	if prepared < 2 {
		t.Errorf("planning a point_read template on a memo hit only %.2fx one-shot planning, want >= 2x", prepared)
	}
	if replay < 2 {
		t.Errorf("single-table replay only %.2fx the reference interpreter, want >= 2x", replay)
	}
	if join < 1.2 {
		t.Errorf("join replay %.2fx the reference interpreter, want >= 1.2x", join)
	}
	if joinScan < 2.5 {
		t.Errorf("unindexed join replay %.2fx the reference interpreter, want >= 2.5x", joinScan)
	}
	if scanFilter < 2.5 {
		t.Errorf("unindexed filtered scans %.2fx the reference interpreter, want >= 2.5x", scanFilter)
	}
	if t.Failed() {
		// A run below a floor is not a measurement of the committed tree:
		// leave the recorded one as it is.
		t.Log("a floor failed: BENCH_exec.json left unchanged")
		return
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_exec.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote BENCH_exec.json: replay %.2fx, join replay %.2fx, unindexed join replay %.2fx, unindexed filtered scans %.2fx, prepared vs one-shot planning %.2fx\n", replay, join, joinScan, scanFilter, prepared)
}

// TestExecBenchSmoke runs a miniature configuration on every plain test run:
// it exercises the workload build, the pre-timing parity gate, and both
// measurement paths without wall-clock assertions.
func TestExecBenchSmoke(t *testing.T) {
	res, err := runExecBench(t, execBenchOptions{Rows: 2_000, Tables: 2, Statements: 8, JoinStatements: 2, ScanRows: 2_000, FilterRows: 2_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statements != 8 {
		t.Fatalf("replay set has %d statements, want 8", res.Statements)
	}
	if res.Driver.NsPerOp <= 0 || res.Reference.NsPerOp <= 0 || res.JoinScanDriver.NsPerOp <= 0 || res.JoinScanReference.NsPerOp <= 0 ||
		res.FilterDriver.NsPerOp <= 0 || res.FilterReference.NsPerOp <= 0 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
}
