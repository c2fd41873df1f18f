package costcache_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/optimizer"
	"aim/internal/sqlparser"
)

// TestSharedEngineConcurrentWhatIf hammers one what-if memo (the
// optimizer.Coster a DTA or Extend run shares between its workers) from 16
// goroutines mixing select and DML estimates over a small set of (query,
// configuration) pairs. Run under -race it proves the
// engine/optimizer/catalog read path and the cache are goroutine-safe; the
// assertions prove results are never torn — every goroutine sees the exact
// same estimate for the same key — and that the memo actually serves
// repeats from memory: the storm plans nothing.
func TestSharedEngineConcurrentWhatIf(t *testing.T) {
	db := engine.New("stress")
	db.MustExec("CREATE TABLE s (id INT, a INT, b INT, c INT, PRIMARY KEY (id))")
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO s VALUES (%d, %d, %d, %d)",
			i, r.Intn(50), r.Intn(200), r.Intn(10)))
	}
	db.Analyze()
	reg := obs.NewRegistry()
	db.SetObs(reg)
	plans := reg.Histogram("optimizer.whatif_seconds")
	whatIf := optimizer.NewCoster(db.Optimizer)

	parse := func(sql string) *sqlparser.Select {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sqlparser.Select)
	}
	selects := []*sqlparser.Select{
		parse("SELECT id FROM s WHERE a = 7"),
		parse("SELECT id FROM s WHERE a = 7 AND b > 50"),
		parse("SELECT c, COUNT(*) FROM s WHERE b < 120 GROUP BY c"),
		parse("SELECT id FROM s WHERE c = 3 ORDER BY b LIMIT 5"),
	}
	dml, err := sqlparser.Parse("UPDATE s SET c = 1 WHERE a = 9")
	if err != nil {
		t.Fatal(err)
	}
	configs := [][]*catalog.Index{
		nil,
		{{Name: "h1", Table: "s", Columns: []string{"a"}, Hypothetical: true}},
		{{Name: "h2", Table: "s", Columns: []string{"a", "b"}, Hypothetical: true}},
		{{Name: "h3", Table: "s", Columns: []string{"c", "b"}, Hypothetical: true}},
	}

	// Reference costs computed sequentially, before the storm.
	type key struct{ q, cfg int }
	want := map[key]float64{}
	for qi, sel := range selects {
		for ci, cfg := range configs {
			est, err := whatIf.EstimateSelectConfig(sel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[key{qi, ci}] = est.Cost
		}
	}
	wantDML := map[int]float64{}
	for ci, cfg := range configs {
		est, err := whatIf.EstimateDMLConfig(dml, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantDML[ci] = est.TotalCost()
	}
	plans0 := plans.Count()

	const goroutines = 16
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < iters; i++ {
				ci := r.Intn(len(configs))
				if i%5 == 4 {
					est, err := whatIf.EstimateDMLConfig(dml, configs[ci])
					if err != nil {
						t.Errorf("dml estimate: %v", err)
						return
					}
					if got := est.TotalCost(); got != wantDML[ci] {
						t.Errorf("torn DML result cfg=%d: %v != %v", ci, got, wantDML[ci])
						return
					}
					continue
				}
				qi := r.Intn(len(selects))
				est, err := whatIf.EstimateSelectConfig(selects[qi], configs[ci])
				if err != nil {
					t.Errorf("estimate: %v", err)
					return
				}
				if got := est.Cost; got != want[key{qi, ci}] {
					t.Errorf("torn result q=%d cfg=%d: %v != %v", qi, ci, got, want[key{qi, ci}])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every (query, config) pair was already memoized by the sequential
	// warm-up, so the storm must be answered entirely from the memo.
	if n := plans.Count() - plans0; n != 0 {
		t.Errorf("the storm planned %d times; want every estimate from the memo", n)
	}
}
