package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aim/internal/engine"
	"aim/internal/sqltypes"
	"aim/internal/workload"
)

func advisorFixture(t testing.TB) (*Advisor, *workload.Monitor) {
	t.Helper()
	db := paperDB(t)
	cfg := DefaultConfig()
	cfg.Selection.MinExecutions = 1
	cfg.Selection.MinBenefit = 0
	adv := NewAdvisor(db, cfg)
	mon := workload.NewMonitor()
	mix := []string{
		"SELECT col5 FROM t1 WHERE col1 = 5 AND col2 = 3",
		"SELECT col5 FROM t1 WHERE col1 = 9 AND col2 = 4",
		"SELECT col3, COUNT(*) FROM t1 WHERE col2 = 5 GROUP BY col3",
		"SELECT col1 FROM t1 WHERE col12 IN ('ABC', 'DEF') ORDER BY col13 LIMIT 5",
		"INSERT INTO t1 VALUES (90001, 1, 2, 3, 4.0, 5, 'ABC', 6)",
		"DELETE FROM t1 WHERE id = 90001",
	}
	for round := 0; round < 10; round++ {
		for _, q := range mix {
			res, err := adv.DB.Exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if _, err := mon.Ingest(res.Template, q, res.Stats); err != nil {
				t.Fatal(err)
			}
		}
	}
	return adv, mon
}

func TestRecommendEndToEnd(t *testing.T) {
	adv, mon := advisorFixture(t)
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Create) == 0 {
		t.Fatal("no recommendations")
	}
	if rec.OptimizerCalls <= 0 || rec.Elapsed <= 0 {
		t.Error("missing run metadata")
	}
	if rec.CandidateCount < len(rec.Create) {
		t.Error("candidate accounting")
	}
	// Every recommendation carries a metrics-driven explanation.
	if len(rec.Explanations) != len(rec.Create) {
		t.Fatal("explanations missing")
	}
	for _, e := range rec.Explanations {
		if e.GainCPU <= 0 {
			t.Errorf("%s: non-positive gain", e.Index.Name)
		}
		if e.SizeBytes <= 0 {
			t.Errorf("%s: no size estimate", e.Index.Name)
		}
		if len(e.Queries) == 0 {
			t.Errorf("%s: no contributing queries", e.Index.Name)
		}
		if e.String() == "" {
			t.Error("empty explanation")
		}
	}
	// An index serving the hot filter (col1, col2) must be among them.
	found := false
	for _, ix := range rec.Create {
		if len(ix.Columns) >= 2 {
			has1, has2 := false, false
			for _, c := range ix.Columns[:2] {
				if c == "col1" {
					has1 = true
				}
				if c == "col2" {
					has2 = true
				}
			}
			if has1 && has2 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no (col1,col2) index recommended: %v", rec.Create)
	}
}

func TestApplyImprovesWorkload(t *testing.T) {
	adv, mon := advisorFixture(t)
	q := "SELECT col5 FROM t1 WHERE col1 = 5 AND col2 = 3"
	before, err := adv.DB.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	created, err := adv.Apply(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != len(rec.Create) {
		t.Fatalf("created %d of %d", len(created), len(rec.Create))
	}
	after, err := adv.DB.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.CPUSeconds() >= before.Stats.CPUSeconds() {
		t.Fatalf("no improvement: %v -> %v (plan %v)",
			before.Stats.CPUSeconds(), after.Stats.CPUSeconds(), after.PlanDesc)
	}
	// Results must be identical.
	if len(after.Rows) != len(before.Rows) {
		t.Fatal("result rows changed after indexing")
	}
}

func TestBudgetRespected(t *testing.T) {
	adv, mon := advisorFixture(t)
	// First, find the unconstrained size.
	recAll, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if recAll.TotalCreateBytes() == 0 {
		t.Fatal("no bytes to constrain")
	}
	adv.Cfg.BudgetBytes = recAll.TotalCreateBytes() / 2
	recHalf, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if recHalf.TotalCreateBytes() > adv.Cfg.BudgetBytes {
		t.Fatalf("budget exceeded: %d > %d", recHalf.TotalCreateBytes(), adv.Cfg.BudgetBytes)
	}
	if len(recHalf.Create) >= len(recAll.Create) {
		t.Errorf("budget did not constrain selection: %d vs %d", len(recHalf.Create), len(recAll.Create))
	}
}

func TestMaintenanceDiscountsWriteHeavyIndexes(t *testing.T) {
	db := paperDB(t)
	cfg := DefaultConfig()
	cfg.Selection.MinExecutions = 1
	adv := NewAdvisor(db, cfg)
	mon := workload.NewMonitor()
	// One rare read on col5 vs massive write traffic touching col5.
	res, _ := db.Exec("SELECT col1 FROM t1 WHERE col5 = 3")
	mon.Ingest(res.Template, "SELECT col1 FROM t1 WHERE col5 = 3", res.Stats)
	for i := 0; i < 400; i++ {
		sql := fmt.Sprintf("UPDATE t1 SET col5 = %d WHERE id = %d", i, i)
		r, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		mon.Ingest(r.Template, sql, r.Stats)
	}
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Candidates {
		hasCol5 := false
		for _, col := range c.Index.Columns {
			if col == "col5" {
				hasCol5 = true
			}
		}
		if hasCol5 && c.Maintenance == 0 {
			t.Errorf("col5 candidate %v has no maintenance discount", c.Index.Columns)
		}
	}
	// The discount must reduce utility below gain.
	for _, c := range rec.Candidates {
		if c.Maintenance > 0 && c.Utility() >= c.Gain {
			t.Error("utility not discounted")
		}
	}
}

func TestUnusedIndexDetection(t *testing.T) {
	adv, mon := advisorFixture(t)
	// Materialize an index no workload query would use.
	adv.DB.MustExec("CREATE INDEX useless ON t1 (col4)")
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rec.Drop {
		if d.Name == "useless" {
			found = true
		}
	}
	if !found {
		t.Fatalf("useless index not flagged; drop = %v", rec.Drop)
	}
	// After Apply, the index is gone.
	if _, err := adv.Apply(rec); err != nil {
		t.Fatal(err)
	}
	if adv.DB.Schema.Index("useless") != nil {
		t.Fatal("useless index survived Apply")
	}
}

func TestUsedIndexNotDropped(t *testing.T) {
	adv, mon := advisorFixture(t)
	adv.DB.MustExec("CREATE INDEX hot ON t1 (col1, col2)")
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rec.Drop {
		if d.Name == "hot" {
			t.Fatal("actively used index flagged for drop")
		}
	}
	// And it must not be re-recommended.
	for _, c := range rec.Create {
		if c.Key() == "t1(col1,col2)" {
			t.Fatal("existing index re-recommended")
		}
	}
}

func TestRecommendEmptyWorkload(t *testing.T) {
	db := paperDB(t)
	adv := NewAdvisor(db, DefaultConfig())
	rec, err := adv.Recommend(workload.NewMonitor())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Create) != 0 || len(rec.Drop) != 0 {
		t.Fatalf("empty workload produced %d create, %d drop", len(rec.Create), len(rec.Drop))
	}
}

func TestRecommendIsIdempotentAfterApply(t *testing.T) {
	adv, mon := advisorFixture(t)
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Apply(rec); err != nil {
		t.Fatal(err)
	}
	rec2, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Create) != 0 {
		t.Fatalf("second run re-recommends: %v", rec2.Create)
	}
}

func TestJoinParameterZeroStillRecommendsFilters(t *testing.T) {
	adv, mon := advisorFixture(t)
	adv.Cfg.J = 0
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Create) == 0 {
		t.Fatal("j=0 should still optimize single-table filters")
	}
}

func TestShrinkProposalForOverwideIndex(t *testing.T) {
	db := paperDB(t)
	// A 4-wide index of which the workload only ever binds (col1, col2).
	db.MustExec("CREATE INDEX wide ON t1 (col1, col2, col4, col5)")
	db.Analyze()
	cfg := DefaultConfig()
	cfg.Selection.MinExecutions = 1
	adv := NewAdvisor(db, cfg)
	mon := workload.NewMonitor()
	for i := 0; i < 10; i++ {
		sql := fmt.Sprintf("SELECT col3 FROM t1 WHERE col1 = %d AND col2 = %d", i%100, i%50)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		mon.Ingest(res.Template, sql, res.Stats)
	}
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Shrink) != 1 {
		t.Fatalf("shrink proposals = %d (drop=%v)", len(rec.Shrink), rec.Drop)
	}
	sp := rec.Shrink[0]
	if sp.From.Name != "wide" || sp.UsedWidth != 2 || len(sp.To.Columns) != 2 {
		t.Fatalf("proposal = %+v", sp)
	}
	if _, err := adv.Apply(rec); err != nil {
		t.Fatal(err)
	}
	if db.Schema.Index("wide") != nil {
		t.Fatal("wide index survived")
	}
	if db.Schema.FindIndexByColumns("t1", []string{"col1", "col2"}) == nil {
		t.Fatal("shrunk index missing")
	}
}

func TestNoShrinkWhenCoveringReadsNeedWidth(t *testing.T) {
	db := paperDB(t)
	db.MustExec("CREATE INDEX wide ON t1 (col1, col2, col5)")
	db.Analyze()
	cfg := DefaultConfig()
	cfg.Selection.MinExecutions = 1
	adv := NewAdvisor(db, cfg)
	mon := workload.NewMonitor()
	for i := 0; i < 10; i++ {
		// Covering read: col5 comes from the index's trailing column.
		sql := fmt.Sprintf("SELECT col5 FROM t1 WHERE col1 = %d", i%100)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && (len(res.UsedIndexes) == 0 || res.UsedIndexes[0] != "wide") {
			t.Skipf("plan does not use wide covering index: %v", res.PlanDesc)
		}
		mon.Ingest(res.Template, sql, res.Stats)
	}
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Shrink) != 0 {
		t.Fatalf("covering index wrongly shrunk: %+v", rec.Shrink[0])
	}
}

func TestNoShrinkToExistingIndex(t *testing.T) {
	db := paperDB(t)
	db.MustExec("CREATE INDEX wide ON t1 (col1, col2, col4)")
	db.MustExec("CREATE INDEX narrow ON t1 (col1, col2)")
	db.Analyze()
	cfg := DefaultConfig()
	cfg.Selection.MinExecutions = 1
	adv := NewAdvisor(db, cfg)
	mon := workload.NewMonitor()
	for i := 0; i < 10; i++ {
		sql := fmt.Sprintf("SELECT col3 FROM t1 WHERE col1 = %d AND col2 = %d", i%100, i%50)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		mon.Ingest(res.Template, sql, res.Stats)
	}
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	// The wide index's prefix already exists as "narrow": the wide one is
	// either unused (dropped) or at least never shrunk onto a duplicate.
	for _, sp := range rec.Shrink {
		if sp.From.Name == "wide" {
			t.Fatalf("shrunk onto existing index: %+v", sp)
		}
	}
}

func TestShardingEconomicsPruneMarginalIndexes(t *testing.T) {
	// The same workload tuned for an unsharded vs a heavily sharded
	// deployment: per §VIII(b), shards multiply maintenance and storage, so
	// marginal write-discounted candidates drop out.
	run := func(shards int) int {
		db := paperDB(t)
		cfg := DefaultConfig()
		cfg.Selection.MinExecutions = 1
		cfg.ShardCount = shards
		adv := NewAdvisor(db, cfg)
		mon := workload.NewMonitor()
		record := func(q string) {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			mon.Ingest(res.Template, q, res.Stats)
		}
		for i := 0; i < 30; i++ {
			record("SELECT col5 FROM t1 WHERE col1 = 5 AND col2 = 3") // hot, high gain
		}
		record("SELECT col4 FROM t1 WHERE col13 = 77") // lukewarm
		for i := 0; i < 40; i++ {
			record(fmt.Sprintf("INSERT INTO t1 VALUES (%d, 1, 2, 3, 4.0, 5, 'ABC', 6)", 91000+i))
			record(fmt.Sprintf("DELETE FROM t1 WHERE id = %d", 91000+i))
		}
		rec, err := adv.Recommend(mon)
		if err != nil {
			t.Fatal(err)
		}
		return len(rec.Create)
	}
	unsharded := run(1)
	sharded := run(1000)
	if unsharded == 0 {
		t.Fatal("unsharded run recommended nothing")
	}
	if sharded > unsharded {
		t.Fatalf("sharding should never add indexes: %d vs %d", sharded, unsharded)
	}
}

func TestFleetAggregatedRecommendation(t *testing.T) {
	// §VII-A: the fleet view aggregates every replica's executions before
	// the advisor runs. A query that is lukewarm on each replica is hot in
	// the aggregate.
	db := paperDB(t)
	cfg := DefaultConfig()
	cfg.Selection.MinExecutions = 10
	cfg.Selection.MinBenefit = 0
	adv := NewAdvisor(db, cfg)
	q := "SELECT col5 FROM t1 WHERE col1 = 5 AND col2 = 3"
	// replica records one replica's executions into each of the monitors.
	replica := func(mons ...*workload.Monitor) {
		for i := 0; i < 4; i++ { // below MinExecutions individually
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mons {
				m.Ingest(res.Template, q, res.Stats)
			}
		}
	}
	r1, fleet := workload.NewMonitor(), workload.NewMonitor()
	replica(r1, fleet)
	replica(fleet)
	replica(fleet)
	// A single replica's view is below threshold.
	recSingle, err := adv.Recommend(r1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recSingle.Create) != 0 {
		t.Fatalf("single replica should be below threshold: %v", recSingle.Create)
	}
	recFleet, err := adv.Recommend(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(recFleet.Create) == 0 {
		t.Fatal("fleet aggregate should cross the threshold")
	}
}

// TestRandomizedAdvisorNeverChangesResults is the whole-pipeline safety
// property: for randomized schemas, data and workloads, applying AIM's
// recommendation must (a) leave every query's result set identical and
// (b) never increase the workload's total measured CPU beyond noise.
func TestRandomizedAdvisorNeverChangesResults(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			db := engine.New("fuzz")
			nTables := 2 + r.Intn(3)
			for ti := 0; ti < nTables; ti++ {
				db.MustExec(fmt.Sprintf(
					"CREATE TABLE f%d (id INT, a INT, b INT, c VARCHAR(8), d FLOAT, PRIMARY KEY (id))", ti))
				rows := 500 + r.Intn(1500)
				for i := 0; i < rows; i++ {
					db.MustExec(fmt.Sprintf("INSERT INTO f%d VALUES (%d, %d, %d, 'w%d', %f)",
						ti, i, r.Intn(40), r.Intn(rows), r.Intn(9), r.Float64()*100))
				}
			}
			db.Analyze()

			var queries []string
			for qi := 0; qi < 12; qi++ {
				ti := r.Intn(nTables)
				switch r.Intn(6) {
				case 0:
					queries = append(queries, fmt.Sprintf("SELECT id, d FROM f%d WHERE a = %d", ti, r.Intn(40)))
				case 1:
					queries = append(queries, fmt.Sprintf("SELECT id FROM f%d WHERE a = %d AND b > %d", ti, r.Intn(40), r.Intn(1000)))
				case 2:
					queries = append(queries, fmt.Sprintf("SELECT c, COUNT(*), AVG(d) FROM f%d WHERE b < %d GROUP BY c", ti, r.Intn(1500)))
				case 3:
					queries = append(queries, fmt.Sprintf("SELECT id FROM f%d WHERE c IN ('w1','w3') ORDER BY b LIMIT %d", ti, 1+r.Intn(20)))
				case 4:
					tj := r.Intn(nTables)
					if tj == ti {
						tj = (tj + 1) % nTables
					}
					queries = append(queries, fmt.Sprintf(
						"SELECT x.id FROM f%d x JOIN f%d y ON y.a = x.a WHERE x.b = %d LIMIT 50", ti, tj, r.Intn(1000)))
				default:
					queries = append(queries, fmt.Sprintf("SELECT id FROM f%d WHERE b BETWEEN %d AND %d", ti, r.Intn(700), 700+r.Intn(800)))
				}
			}

			mon := workload.NewMonitor()
			before := make(map[string][]string)
			var beforeCPU float64
			for _, q := range queries {
				res, err := db.Exec(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				before[q] = canonRows(res)
				beforeCPU += res.Stats.CPUSeconds()
				for k := 0; k < 3; k++ {
					mon.Ingest(res.Template, q, res.Stats)
				}
			}

			cfg := DefaultConfig()
			cfg.Selection.MinExecutions = 1
			adv := NewAdvisor(db, cfg)
			rec, err := adv.Recommend(mon)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := adv.Apply(rec); err != nil {
				t.Fatal(err)
			}

			var afterCPU float64
			for _, q := range queries {
				res, err := db.Exec(q)
				if err != nil {
					t.Fatalf("after apply %s: %v", q, err)
				}
				afterCPU += res.Stats.CPUSeconds()
				got := canonRows(res)
				want := before[q]
				if len(got) != len(want) {
					t.Fatalf("%s: row count changed %d -> %d (plan %v)", q, len(want), len(got), res.PlanDesc)
				}
				// LIMIT without full ORDER BY is non-deterministic across
				// plans; compare sets only for fully determined queries.
				if !strings.Contains(q, "LIMIT") {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: results changed (plan %v)", q, res.PlanDesc)
						}
					}
				}
			}
			if afterCPU > beforeCPU*1.05 {
				t.Errorf("workload regressed: %.4fs -> %.4fs (created %d indexes)",
					beforeCPU, afterCPU, len(rec.Create))
			}
		})
	}
}

// canonRows renders a result set as sorted canonical strings.
func canonRows(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = string(sqltypes.EncodeKey(nil, r...))
	}
	sort.Strings(out)
	return out
}
