package shadow

import (
	"math/rand"
	"reflect"
	"testing"

	"aim/internal/engine"
	"aim/internal/scenarios"
	"aim/internal/sqlparser"
	"aim/internal/workload"
	"aim/internal/workloads/products"
	"aim/internal/workloads/tpch"
)

// TestSamplerEqualsBindThenExec holds the replay's template route to the
// route it replaced: over the statements of the workload generators (the
// seven scenarios, a product's read/write mix with its IN lists, TPC-H's
// joins and LIKEs), each sample of each template runs through sampler on one
// clone and through Bind + ExecStmt on another clone of the same rows, in
// lockstep, and both must fail alike or report the same Stats, Template and
// Params.
func TestSamplerEqualsBindThenExec(t *testing.T) {
	type source struct {
		name  string
		db    *engine.DB
		stmts []string
	}
	var sources []source
	for _, sc := range scenarios.All() {
		r := rand.New(rand.NewSource(1))
		db, err := sc.Setup(r)
		if err != nil {
			t.Fatal(err)
		}
		var stmts []string
		for cycle := 0; cycle < 40; cycle++ {
			for i := 0; i < 10; i++ {
				stmts = append(stmts, sc.Statement(cycle, r))
			}
		}
		sources = append(sources, source{sc.Name(), db, stmts})
	}
	p, err := products.Build(products.Spec{Name: "Route", Tables: 4, JoinQueries: 8,
		Type: products.Balanced, TargetDBA: 6, RowsPerTable: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	var stmts []string
	for i := 0; i < 600; i++ {
		stmts = append(stmts, p.SampleStatement(r))
	}
	sources = append(sources, source{"product", p.DB, stmts})
	tp, err := tpch.Build(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, source{"tpch", tp, append(tpch.Queries(1), tpch.Queries(2)...)})

	bypassed, templated := 0, 0
	for _, src := range sources {
		mon := workload.NewMonitor()
		for _, sql := range src.stmts {
			res, err := src.db.Exec(sql)
			if err != nil {
				continue
			}
			if _, err := mon.IngestStamped(res.Template, res.Params, res.Stats, res.Stamp); err != nil {
				t.Fatal(err)
			}
		}
		viaSampler, viaBind := src.db.Clone("sampler"), src.db.Clone("bind")
		for _, q := range mon.Queries() {
			smp := &sampler{q: q}
			for _, params := range q.SampleParams {
				run := smp.prepare(params)
				stmt, bindErr := sqlparser.Bind(q.Stmt, params)
				if (run == nil) != (bindErr != nil) {
					t.Fatalf("%s: %s %v: sampler binds %v, Bind errs %v", src.name, q.Normalized, params, run != nil, bindErr)
				}
				if run == nil {
					continue
				}
				got, gotErr := run(viaSampler)
				want, wantErr := viaBind.ExecStmt(stmt)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s: %s %v: sampler errs %v, Bind + ExecStmt %v", src.name, q.Normalized, params, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if got.Stats != want.Stats || got.Template != want.Template || !reflect.DeepEqual(got.Params, want.Params) {
					t.Fatalf("%s: %s %v:\n sampler %+v %q %v\n bind    %+v %q %v", src.name, q.Normalized, params,
						got.Stats, got.Template, got.Params, want.Stats, want.Template, want.Params)
				}
			}
			if smp.t != nil && smp.t.Bypass != "" {
				bypassed++
			} else if smp.t != nil {
				templated++
			}
		}
		viaSampler.Release()
		viaBind.Release()
	}
	t.Logf("%d templates ran through the template route, %d bound (Bypass)", templated, bypassed)
	if bypassed == 0 || templated == 0 {
		t.Fatalf("both routes must be exercised: %d templated, %d bypassed", templated, bypassed)
	}
}
