package exec_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

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
// measured separately: single-table replay is where batching pays, joins are
// where it must at least not cost.

type execBenchOptions struct {
	Rows           int // total rows across all tables
	Tables         int
	Statements     int // single-table read statements in the replay set
	JoinStatements int
	Seed           int64
}

// execBenchEntry mirrors one Go benchmark result; one op = one statement.
type execBenchEntry struct {
	NsPerOp    int64 `json:"ns_per_op"`
	Iterations int   `json:"iterations"`
}

type execBenchResult struct {
	Rows, Statements, JoinStatements int

	Reference, Driver         execBenchEntry // single-table replay
	JoinReference, JoinDriver execBenchEntry
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

// runExecBench builds the workload, holds the driver to the reference on
// every statement in the replay set, then measures both. Statements are
// parsed once up front: the benchmark times plan + execute, not the parser.
func runExecBench(opts execBenchOptions) (*execBenchResult, error) {
	spec := products.Spec{
		Name: "ExecBench", Tables: opts.Tables, JoinQueries: 6,
		Type: products.ReadHeavy, TargetDBA: 12,
		RowsPerTable: opts.Rows / opts.Tables, Seed: 100 + opts.Seed,
	}
	p, err := products.Build(spec)
	if err != nil {
		return nil, err
	}
	if err := p.ApplyDBAIndexes(); err != nil {
		return nil, err
	}

	r := rand.New(rand.NewSource(opts.Seed))
	var reads, joins []*sqlparser.Select
	for attempts := 0; (len(reads) < opts.Statements || len(joins) < opts.JoinStatements) && attempts < 10_000; attempts++ {
		sql := p.SampleRead(r)
		isJoin := strings.Contains(sql, "JOIN")
		if isJoin && len(joins) >= opts.JoinStatements {
			continue
		}
		if !isJoin && len(reads) >= opts.Statements {
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
			joins = append(joins, sel)
		} else {
			reads = append(reads, sel)
		}
	}
	if len(reads) < opts.Statements {
		return nil, fmt.Errorf("execbench: sampled only %d/%d single-table statements", len(reads), opts.Statements)
	}

	ex := exec.New(p.DB.Store)
	run := func(sel *sqlparser.Select, f runFunc) (*exec.Result, error) {
		plan, _, err := p.DB.Optimizer.BuildSelectPlan(sel)
		if err != nil {
			return nil, err
		}
		return f(plan, nil)
	}
	render := func(sel *sqlparser.Select, f runFunc) (string, error) {
		out, err := run(sel, f)
		if err != nil {
			return "", err
		}
		return exec.RenderResult(out), nil
	}

	// Parity gate before timing anything: every replayed statement must
	// produce byte-identical rows and Stats on the driver and the reference.
	for _, sel := range append(append([]*sqlparser.Select(nil), reads...), joins...) {
		want, err := render(sel, ex.RunReference)
		if err != nil {
			return nil, err
		}
		got, err := render(sel, ex.Run)
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, fmt.Errorf("execbench: driver diverges from the reference on %s\n--- reference ---\n%s\n--- driver ---\n%s",
				sel.SQL(), want, got)
		}
	}

	res := &execBenchResult{Rows: opts.Tables * spec.RowsPerTable,
		Statements: len(reads), JoinStatements: len(joins)}
	measure := func(stmts []*sqlparser.Select, f runFunc) (execBenchEntry, error) {
		if len(stmts) == 0 {
			return execBenchEntry{}, nil
		}
		var benchErr error
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := run(stmts[i%len(stmts)], f)
				if err != nil {
					benchErr = err
					b.FailNow()
				}
				execBenchSink += out.Stats.RowsSent
			}
		})
		return execBenchEntry{NsPerOp: br.NsPerOp(), Iterations: br.N}, benchErr
	}
	if res.Reference, err = measure(reads, ex.RunReference); err != nil {
		return nil, err
	}
	if res.Driver, err = measure(reads, ex.Run); err != nil {
		return nil, err
	}
	if res.JoinReference, err = measure(joins, ex.RunReference); err != nil {
		return nil, err
	}
	if res.JoinDriver, err = measure(joins, ex.Run); err != nil {
		return nil, err
	}
	return res, nil
}

// TestBenchExecReport measures replay throughput of the batch driver against
// the reference interpreter on the products workload and records the results
// in BENCH_exec.json at the repo root. Wall-clock sensitive, so it is
// env-gated out of plain `go test ./...`; `make benchexec` invokes it. A
// passing report also certifies parity on every replayed statement.
func TestBenchExecReport(t *testing.T) {
	if os.Getenv("AIM_BENCH_EXEC") == "" {
		t.Skip("set AIM_BENCH_EXEC=1 to run (invoked by make benchexec)")
	}
	res, err := runExecBench(execBenchOptions{Rows: 100_000, Tables: 2, Statements: 64, JoinStatements: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	replay, join := speedup(res.Reference, res.Driver), speedup(res.JoinReference, res.JoinDriver)

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
		},
		Plan:    map[string]map[string]int64{"oneshot_ns": oneShotNs, "prepared_ns": preparedNs},
		Speedup: map[string]float64{"replay": replay, "join_replay": join, "prepared_vs_oneshot": prepared},
	}
	t.Logf("replay: %.2fx the reference over %d statements (%d rows); joins: %.2fx over %d statements; planning a point read on a memo hit: %.2fx one-shot (%d -> %d ns)",
		replay, res.Statements, res.Rows, join, res.JoinStatements, prepared, oneShotNs["point"], preparedNs["point"])
	if prepared < 2 {
		t.Errorf("planning a point_read template on a memo hit only %.2fx one-shot planning, want >= 2x", prepared)
	}
	if replay < 2 {
		t.Errorf("single-table replay only %.2fx the reference interpreter, want >= 2x", replay)
	}
	if join < 0.9 {
		t.Errorf("join replay %.2fx the reference interpreter, want >= 0.9x", join)
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_exec.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote BENCH_exec.json: replay %.2fx, join replay %.2fx, prepared vs one-shot planning %.2fx\n", replay, join, prepared)
}

// TestExecBenchSmoke runs a miniature configuration on every plain test run:
// it exercises the workload build, the pre-timing parity gate, and both
// measurement paths without wall-clock assertions.
func TestExecBenchSmoke(t *testing.T) {
	res, err := runExecBench(execBenchOptions{Rows: 2_000, Tables: 2, Statements: 8, JoinStatements: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Statements != 8 {
		t.Fatalf("replay set has %d statements, want 8", res.Statements)
	}
	if res.Driver.NsPerOp <= 0 || res.Reference.NsPerOp <= 0 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
}
