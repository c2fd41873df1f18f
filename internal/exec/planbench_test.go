package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/workloads/products"
)

// The plan benchmark: what planning one statement costs one-shot
// (Optimizer.BuildSelectPlan: prepare, choose, build) and on a memo hit
// (Optimizer.PlanSelect on the statement's template: choose, build). The
// statements are the benchmark's: point_read's two SELECTs and scan_read's
// join on fixture A, and a products three-way join.

type planCase struct {
	name  string
	point bool // one of the two point_read templates the 2x gate is over
	db    *engine.DB
	sel   *sqlparser.Select
	tmpl  sqlparser.Template
}

// buildEvents builds fixture A's events and users tables (one user per ten
// events), with its three events indexes when indexed.
func buildEvents(tb testing.TB, events int, indexed bool) *engine.DB {
	tb.Helper()
	db := engine.New("events")
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, note VARCHAR(16), PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE users (id INT, name VARCHAR(16), tier INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(1))
	users := events / 10
	rows := make([]sqltypes.Row, events)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(r.Intn(users))), sqltypes.NewInt(int64(r.Intn(8))),
			sqltypes.NewInt(int64(r.Intn(365))), sqltypes.NewInt(int64(r.Intn(1000))), sqltypes.NewString(fmt.Sprintf("n%d", r.Intn(1000))),
		}
	}
	if err := db.InsertRows("events", rows); err != nil {
		tb.Fatal(err)
	}
	rows = make([]sqltypes.Row, users)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("u%d", i)), sqltypes.NewInt(int64(r.Intn(5)))}
	}
	if err := db.InsertRows("users", rows); err != nil {
		tb.Fatal(err)
	}
	if indexed {
		if _, err := db.CreateIndexes([]*catalog.Index{
			{Name: "ix_events_user", Table: "events", Columns: []string{"user_id"}},
			{Name: "ix_events_day", Table: "events", Columns: []string{"day"}},
			{Name: "ix_events_kind_score", Table: "events", Columns: []string{"kind", "score"}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	db.Analyze()
	return db
}

// newPlanCases builds the two databases (events rows in fixture A, rows per
// products table) and parses and normalizes the four statements.
func newPlanCases(tb testing.TB, events, rowsPerTable int) []planCase {
	tb.Helper()
	db := buildEvents(tb, events, true)
	p, err := products.Build(products.Spec{Name: "PlanBench", Tables: 6, JoinQueries: 12,
		Type: products.ReadHeavy, TargetDBA: 12, RowsPerTable: rowsPerTable, Seed: 101})
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.ApplyDBAIndexes(); err != nil {
		tb.Fatal(err)
	}
	var threeWay string
	pr := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000 && threeWay == ""; i++ {
		sql := p.SampleRead(pr)
		if stmt, err := sqlparser.Parse(sql); err == nil {
			if sel, ok := stmt.(*sqlparser.Select); ok && len(sel.Tables) == 3 && sqlparser.NewTemplate(sel).Bypass == "" {
				threeWay = sql
			}
		}
	}
	if threeWay == "" {
		tb.Fatal("products sampled no three-way join")
	}

	cases := []planCase{
		{name: "point_id", point: true, db: db},
		{name: "point_user", point: true, db: db},
		{name: "scan_join", db: db},
		{name: "products_3way", db: p.DB},
	}
	for i, sql := range []string{
		"SELECT score, day FROM events WHERE id = 4711",
		"SELECT id, score FROM events WHERE user_id = 42",
		"SELECT e.id, u.tier FROM events e JOIN users u ON u.id = e.user_id WHERE e.day = 7 LIMIT 200",
		threeWay,
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			tb.Fatal(err)
		}
		cases[i].sel = stmt.(*sqlparser.Select)
		cases[i].tmpl = sqlparser.NewTemplate(stmt)
		if cases[i].tmpl.Bypass != "" {
			tb.Fatalf("%s bypasses the memo: %s", sql, cases[i].tmpl.Bypass)
		}
	}
	return cases
}

func (c *planCase) oneShot() error {
	_, _, err := c.db.Optimizer.BuildSelectPlan(c.sel)
	return err
}

func (c *planCase) prepared() error {
	_, _, err := c.db.Optimizer.PlanSelect(c.tmpl.Text, c.tmpl.Stmt.(*sqlparser.Select), c.tmpl.Params)
	return err
}

func benchmarkPlan(b *testing.B, plan func(*planCase) error) {
	for _, c := range newPlanCases(b, 20_000, 2_000) {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := plan(&c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlanOneShot(b *testing.B)  { benchmarkPlan(b, (*planCase).oneShot) }
func BenchmarkPlanPrepared(b *testing.B) { benchmarkPlan(b, (*planCase).prepared) }

// measurePlans times both plan benchmarks per case for TestBenchExecReport, at
// fixture A's benchmark size; "point" is the mean of the two point_read
// templates.
func measurePlans(t *testing.T) (oneShot, prepared map[string]int64) {
	oneShot, prepared = map[string]int64{}, map[string]int64{}
	for _, c := range newPlanCases(t, 200_000, 20_000) {
		c := c
		measure := func(into map[string]int64, plan func(*planCase) error) {
			ns := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := plan(&c); err != nil {
						b.Fatal(err)
					}
				}
			}).NsPerOp()
			into[c.name] = ns
			if c.point {
				into["point"] += ns / 2
			}
		}
		measure(oneShot, (*planCase).oneShot)
		measure(prepared, (*planCase).prepared)
	}
	return oneShot, prepared
}
