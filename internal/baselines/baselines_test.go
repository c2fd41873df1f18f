package baselines

import (
	"fmt"
	"math/rand"
	"testing"

	"aim/internal/engine"
	"aim/internal/workload"
)

// analyticsDB builds a small star schema with a clearly index-hungry
// workload shared by all baseline tests.
func analyticsDB(t testing.TB) (*engine.DB, []*workload.QueryStats) {
	t.Helper()
	db := engine.New("analytics")
	db.MustExec(`CREATE TABLE facts (id INT, dim1 INT, dim2 INT, dim3 INT, val FLOAT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE dims (id INT, grp INT, label VARCHAR(8), PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO facts VALUES (%d, %d, %d, %d, %f)",
			i, r.Intn(100), r.Intn(40), r.Intn(500), r.Float64()*100))
	}
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO dims VALUES (%d, %d, 'g%d')", i, i%10, i%10))
	}
	db.Analyze()
	mon := workload.NewMonitor()
	mix := []string{
		"SELECT val FROM facts WHERE dim1 = 5 AND dim2 = 3",
		"SELECT val FROM facts WHERE dim3 = 77",
		"SELECT dim2, COUNT(*) FROM facts WHERE dim1 = 9 GROUP BY dim2",
		"SELECT f.val FROM facts f JOIN dims d ON f.dim1 = d.id WHERE d.grp = 3",
	}
	for round := 0; round < 5; round++ {
		for _, q := range mix {
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			mon.Observe(q, res)
		}
	}
	return db, mon.Representative(workload.SelectionConfig{MinExecutions: 1})
}

func allAdvisors() []Advisor {
	return []Advisor{
		&AIM{J: 2, EnableCovering: true},
		&Extend{MaxWidth: 3},
		&DTA{MaxWidth: 3},
	}
}

func TestAllAdvisorsImproveWorkload(t *testing.T) {
	for _, adv := range allAdvisors() {
		adv := adv
		t.Run(adv.Name(), func(t *testing.T) {
			db, queries := analyticsDB(t)
			base := WorkloadCost(db, queries, nil)
			res, err := adv.Recommend(db, queries, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Indexes) == 0 {
				t.Fatal("no indexes recommended")
			}
			after := WorkloadCost(db, queries, res.Indexes)
			if after >= base {
				t.Fatalf("workload cost did not improve: %v -> %v", base, after)
			}
			if res.OptimizerCalls <= 0 {
				t.Error("optimizer calls not tracked")
			}
			if res.Elapsed <= 0 {
				t.Error("elapsed not tracked")
			}
		})
	}
}

func TestBudgetRespectedByAll(t *testing.T) {
	for _, adv := range allAdvisors() {
		adv := adv
		t.Run(adv.Name(), func(t *testing.T) {
			db, queries := analyticsDB(t)
			free, err := adv.Recommend(db, queries, 0)
			if err != nil {
				t.Fatal(err)
			}
			full := totalSize(db, free.Indexes)
			if full == 0 {
				t.Skip("nothing recommended")
			}
			budget := full / 2
			constrained, err := adv.Recommend(db, queries, budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := totalSize(db, constrained.Indexes); got > budget {
				t.Fatalf("budget exceeded: %d > %d", got, budget)
			}
		})
	}
}

func TestAIMFarFewerOptimizerCalls(t *testing.T) {
	// The headline §VI-B contrast: AIM's runtime (≈ optimizer calls) is
	// orders of magnitude below DTA/Extend.
	db, queries := analyticsDB(t)
	aim, err := (&AIM{J: 2}).Recommend(db, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	db2, queries2 := analyticsDB(t)
	ext, err := (&Extend{MaxWidth: 3}).Recommend(db2, queries2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aim.OptimizerCalls*3 > ext.OptimizerCalls {
		t.Fatalf("AIM calls (%d) not clearly below Extend (%d)", aim.OptimizerCalls, ext.OptimizerCalls)
	}
	db3, queries3 := analyticsDB(t)
	dta, err := (&DTA{MaxWidth: 3}).Recommend(db3, queries3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aim.OptimizerCalls*3 > dta.OptimizerCalls {
		t.Fatalf("AIM calls (%d) not clearly below DTA (%d)", aim.OptimizerCalls, dta.OptimizerCalls)
	}
}

func TestExtendWidensIndexes(t *testing.T) {
	db, queries := analyticsDB(t)
	res, err := (&Extend{MaxWidth: 3}).Recommend(db, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	wide := false
	for _, ix := range res.Indexes {
		if len(ix.Columns) > 3 {
			t.Fatalf("MaxWidth violated: %v", ix.Columns)
		}
		if len(ix.Columns) >= 2 {
			wide = true
		}
	}
	if !wide {
		t.Error("Extend never widened an index for the conjunctive filter")
	}
}

func TestDTAWidthCapRespected(t *testing.T) {
	db, queries := analyticsDB(t)
	res, err := (&DTA{MaxWidth: 2}).Recommend(db, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range res.Indexes {
		if len(ix.Columns) > 2 {
			t.Fatalf("width cap violated: %v", ix.Columns)
		}
	}
}

func TestDTATimeLimitIsAnytime(t *testing.T) {
	db, queries := analyticsDB(t)
	res, err := (&DTA{MaxWidth: 3, TimeLimit: 1}).Recommend(db, queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With a ~zero time limit the greedy phase stops immediately; the seed
	// phase still runs, so it must return without error (possibly empty).
	_ = res
}

func TestEnumerateCandidatesShape(t *testing.T) {
	rc := roleColumns{table: "t", eq: []string{"a", "b"}, rng: []string{"r"}, group: []string{"g"}}
	cands := enumerateCandidates(rc, 3)
	keys := map[string]bool{}
	for _, c := range cands {
		keys[joinCols(c)] = true
	}
	for _, want := range []string{"a", "b", "a,b", "b,a", "a,b,r", "a,r", "r", "g", "a,b,g"} {
		if !keys[want] {
			t.Errorf("missing candidate %q (have %v)", want, keys)
		}
	}
	// Width cap.
	for _, c := range cands {
		if len(c) > 3 {
			t.Errorf("width exceeded: %v", c)
		}
	}
}

func TestWorkloadCostWeightsByExecutions(t *testing.T) {
	db, queries := analyticsDB(t)
	base := WorkloadCost(db, queries, nil)
	// Doubling execution counts must double the cost.
	for _, q := range queries {
		q.Executions *= 2
	}
	if got := WorkloadCost(db, queries, nil); got < base*1.9 || got > base*2.1 {
		t.Fatalf("weighting broken: %v vs %v", got, base)
	}
}
