package experiments

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aim/internal/engine"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/workloads/products"
)

// ExecBenchOptions parameterizes the replay/serving hot-path benchmark: a
// products-style database at Rows total rows, its DBA index set applied, and
// a fixed set of sampled read statements replayed through both execution
// engines. Join statements are measured separately — the batch engine
// deliberately routes join pipelines to the row loop, so they gauge fallback
// overhead, not vectorization gain.
type ExecBenchOptions struct {
	Rows           int   // total rows across all tables (default 100_000)
	Tables         int   // table count (default 2)
	Statements     int   // single-table read statements in the replay set (default 64)
	JoinStatements int   // join statements measured separately (default 8)
	Seed           int64 // workload generator seed (default 1)
}

// DefaultExecBenchOptions returns the configuration used by `make benchexec`.
func DefaultExecBenchOptions() ExecBenchOptions {
	return ExecBenchOptions{Rows: 100_000, Tables: 2, Statements: 64, JoinStatements: 8, Seed: 1}
}

// ExecBenchEntry mirrors one Go benchmark result; one op = one statement.
type ExecBenchEntry struct {
	NsPerOp    int64 `json:"ns_per_op"`
	Iterations int   `json:"iterations"`
}

// ExecBenchResult reports both engines over both statement classes.
type ExecBenchResult struct {
	Rows           int
	Statements     int
	JoinStatements int

	RowEngine     ExecBenchEntry // single-table replay, tuple-at-a-time
	VecEngine     ExecBenchEntry // single-table replay, vectorized batches
	JoinRowEngine ExecBenchEntry
	JoinVecEngine ExecBenchEntry
}

// Speedup is row-engine ns over batch-engine ns for the single-table replay
// set — the number the >= 2x acceptance gate reads.
func (r *ExecBenchResult) Speedup() float64 {
	return float64(r.RowEngine.NsPerOp) / float64(r.VecEngine.NsPerOp)
}

// JoinSpeedup is the same ratio for join statements; expected ~1.0 since
// both engines run join pipelines on the row loop.
func (r *ExecBenchResult) JoinSpeedup() float64 {
	if r.JoinVecEngine.NsPerOp == 0 {
		return 1
	}
	return float64(r.JoinRowEngine.NsPerOp) / float64(r.JoinVecEngine.NsPerOp)
}

// execBenchSink defeats dead-code elimination across replay iterations.
var execBenchSink int64

// RunExecBench builds the workload, cross-checks engine parity on every
// statement in the replay set, then measures both engines. Statements are
// parsed once up front: the benchmark times plan + execute, not the parser.
func RunExecBench(opts ExecBenchOptions) (*ExecBenchResult, error) {
	if opts.Rows <= 0 {
		opts.Rows = 100_000
	}
	if opts.Tables <= 0 {
		opts.Tables = 2
	}
	if opts.Statements <= 0 {
		opts.Statements = 64
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
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
	var reads, joins []sqlparser.Statement
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
		if isJoin {
			joins = append(joins, stmt)
		} else {
			reads = append(reads, stmt)
		}
	}
	if len(reads) < opts.Statements {
		return nil, fmt.Errorf("execbench: sampled only %d/%d single-table statements", len(reads), opts.Statements)
	}

	// Determinism gate before timing anything: every replayed statement must
	// produce byte-identical rows and Stats on both engines.
	for _, stmt := range append(append([]sqlparser.Statement(nil), reads...), joins...) {
		if err := checkEngineParity(p.DB, stmt); err != nil {
			return nil, err
		}
	}

	res := &ExecBenchResult{Rows: opts.Tables * spec.RowsPerTable,
		Statements: len(reads), JoinStatements: len(joins)}
	measure := func(stmts []sqlparser.Statement, rowOnly bool) (ExecBenchEntry, error) {
		if len(stmts) == 0 {
			return ExecBenchEntry{}, nil
		}
		p.DB.SetRowOnlyExec(rowOnly)
		var benchErr error
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := p.DB.ExecStmt(stmts[i%len(stmts)])
				if err != nil {
					benchErr = err
					b.FailNow()
				}
				execBenchSink += out.Stats.RowsSent
			}
		})
		if benchErr != nil {
			return ExecBenchEntry{}, benchErr
		}
		return ExecBenchEntry{NsPerOp: br.NsPerOp(), Iterations: br.N}, nil
	}
	if res.RowEngine, err = measure(reads, true); err != nil {
		return nil, err
	}
	if res.VecEngine, err = measure(reads, false); err != nil {
		return nil, err
	}
	if res.JoinRowEngine, err = measure(joins, true); err != nil {
		return nil, err
	}
	if res.JoinVecEngine, err = measure(joins, false); err != nil {
		return nil, err
	}
	p.DB.SetRowOnlyExec(false)
	return res, nil
}

// checkEngineParity executes stmt on the row engine and the batch engine and
// fails unless rows (values and order) and every Stats counter match.
func checkEngineParity(db *engine.DB, stmt sqlparser.Statement) error {
	render := func(rowOnly bool) (string, error) {
		db.SetRowOnlyExec(rowOnly)
		out, err := db.ExecStmt(stmt)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, row := range out.Rows {
			b.WriteString(hex.EncodeToString(sqltypes.EncodeKey(nil, row...)))
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%+v", out.Stats)
		return b.String(), nil
	}
	rowRes, err := render(true)
	if err != nil {
		return err
	}
	vecRes, err := render(false)
	if err != nil {
		return err
	}
	if rowRes != vecRes {
		return fmt.Errorf("execbench: engine divergence on %s\n--- row ---\n%s\n--- vec ---\n%s",
			stmt.SQL(), rowRes, vecRes)
	}
	return nil
}
