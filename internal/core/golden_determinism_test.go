package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/workload"
)

// The golden determinism tests pin the tentpole guarantee of the parallel
// what-if subsystem: Recommend with a single worker and with a full worker
// pool must produce byte-identical recommendations — same index sets, same
// bit-exact gains/maintenance, same explanation ordering, same logical
// optimizer-call count. The comparison renders every float with %x (hex
// mantissa), so even one ULP of drift from a reordered float fold fails.

// ecommerceGoldenDB is an e-commerce shape: products and orders under a
// mixed read/write workload.
func ecommerceGoldenDB(t testing.TB) (*engine.DB, []string) {
	t.Helper()
	db := engine.New("golden_ecommerce")
	db.MustExec(`CREATE TABLE products (id INT, category INT, brand INT, price FLOAT,
		stock INT, rating INT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE orders (id INT, product_id INT, customer INT,
		status INT, total FLOAT, day INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO products VALUES (%d, %d, %d, %f, %d, %d)",
			i, r.Intn(40), r.Intn(120), r.Float64()*500, r.Intn(1000), 1+r.Intn(5)))
	}
	for i := 0; i < 4000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d, %f, %d)",
			i, r.Intn(2000), r.Intn(800), r.Intn(5), r.Float64()*900, r.Intn(365)))
	}
	db.Analyze()
	queries := []string{
		"SELECT id, price FROM products WHERE category = 7 AND brand = 31",
		"SELECT id FROM products WHERE category = 12 AND price < 100.0",
		"SELECT brand, COUNT(*) FROM products WHERE rating = 5 GROUP BY brand",
		"SELECT id FROM orders WHERE customer = 17 AND status = 2",
		"SELECT id, total FROM orders WHERE product_id = 455",
		"SELECT customer FROM orders WHERE day BETWEEN 100 AND 130 ORDER BY day LIMIT 20",
		"SELECT o.id FROM orders o JOIN products p ON p.id = o.product_id WHERE p.category = 3 LIMIT 50",
		"UPDATE orders SET status = 3 WHERE id = 77",
		"INSERT INTO orders VALUES (99001, 5, 6, 0, 12.5, 200)",
		"DELETE FROM orders WHERE id = 99001",
	}
	return db, queries
}

// joinheavyGoldenDB is a star join: a fact table joining three dimensions,
// exercising the J-parameter powerset paths.
func joinheavyGoldenDB(t testing.TB) (*engine.DB, []string) {
	t.Helper()
	db := engine.New("golden_joinheavy")
	db.MustExec(`CREATE TABLE facts (id INT, k1 INT, k2 INT, k3 INT, v INT,
		metric FLOAT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE d1 (id INT, attr INT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE d2 (id INT, attr INT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE d3 (id INT, attr INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO facts VALUES (%d, %d, %d, %d, %d, %f)",
			i, r.Intn(200), r.Intn(200), r.Intn(200), r.Intn(50), r.Float64()*10))
	}
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO d1 VALUES (%d, %d)", i, r.Intn(10)))
		db.MustExec(fmt.Sprintf("INSERT INTO d2 VALUES (%d, %d)", i, r.Intn(10)))
		db.MustExec(fmt.Sprintf("INSERT INTO d3 VALUES (%d, %d)", i, r.Intn(10)))
	}
	db.Analyze()
	queries := []string{
		"SELECT f.id FROM facts f JOIN d1 x ON x.id = f.k1 WHERE x.attr = 3 AND f.v = 7 LIMIT 40",
		"SELECT f.id FROM facts f JOIN d2 y ON y.id = f.k2 WHERE f.v = 9 LIMIT 40",
		"SELECT f.id FROM facts f JOIN d1 x ON x.id = f.k1 JOIN d2 y ON y.id = f.k2 WHERE f.v = 4 LIMIT 40",
		"SELECT k3, COUNT(*) FROM facts WHERE v = 11 GROUP BY k3",
		"SELECT id FROM facts WHERE k1 = 55 AND k2 = 77",
		"SELECT id FROM facts WHERE metric > 5.0 ORDER BY v LIMIT 10",
		"UPDATE facts SET v = 1 WHERE id = 5",
	}
	return db, queries
}

// renderRecommendation serializes everything the advisor decided, at full
// float precision, excluding only wall-clock time and cache telemetry
// (which legitimately differ between runs).
func renderRecommendation(rec *Recommendation) string {
	hex := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "partialOrders=%d candidates=%d optimizerCalls=%d\n",
		rec.PartialOrders, rec.CandidateCount, rec.OptimizerCalls)
	for _, ix := range rec.Create {
		fmt.Fprintf(&b, "create %s\n", ix)
	}
	for _, ix := range rec.Drop {
		fmt.Fprintf(&b, "drop %s\n", ix)
	}
	for _, e := range rec.Explanations {
		fmt.Fprintf(&b, "explain %s po=%s gain=%s maint=%s size=%d queries=%s\n",
			e.Index.Key(), e.PartialOrder, hex(e.GainCPU), hex(e.MaintenanceCPU),
			e.SizeBytes, strings.Join(e.Queries, "&"))
	}
	for _, c := range rec.Candidates {
		fmt.Fprintf(&b, "cand %s gain=%s maint=%s size=%d\n",
			c.Index.Key(), hex(c.Gain), hex(c.Maintenance), c.SizeBytes)
	}
	return b.String()
}

func goldenRun(t *testing.T, build func(testing.TB) (*engine.DB, []string), parallelism int, withMetrics bool) string {
	t.Helper()
	db, queries := build(t)
	if withMetrics {
		// Full observability on: registry, span tracing, pool metrics. The
		// recommendation must be byte-identical to an uninstrumented run.
		reg := obs.NewRegistry()
		reg.SetTraceWriter(&strings.Builder{})
		db.SetObs(reg)
		pool.Instrument(reg)
		defer pool.Instrument(nil)
	}
	cfg := DefaultConfig()
	cfg.Selection.MinExecutions = 1
	cfg.Selection.MinBenefit = 0
	cfg.Parallelism = parallelism
	adv := NewAdvisor(db, cfg)
	mon := workload.NewMonitor()
	for _, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for i := 0; i < 3; i++ {
			if err := mon.Observe(q, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec, err := adv.Recommend(mon)
	if err != nil {
		t.Fatal(err)
	}
	if parallelism != 1 && rec.Cache.Hits+rec.Cache.Misses == 0 {
		t.Error("parallel run recorded no cost-cache activity")
	}
	return renderRecommendation(rec)
}

func testGoldenDeterminism(t *testing.T, build func(testing.TB) (*engine.DB, []string)) {
	sequential := goldenRun(t, build, 1, false)
	if !strings.Contains(sequential, "create ") {
		t.Fatalf("golden workload produced no recommendations:\n%s", sequential)
	}
	for _, workers := range []int{0, 2, 8} {
		parallel := goldenRun(t, build, workers, false)
		if parallel != sequential {
			t.Errorf("parallelism=%d diverged from sequential run\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, sequential, parallel)
		}
	}
	// Observability must not perturb the recommendation: with the registry,
	// tracing and pool metrics all enabled, output stays byte-identical —
	// sequentially and under a full worker pool.
	for _, workers := range []int{1, 8} {
		instrumented := goldenRun(t, build, workers, true)
		if instrumented != sequential {
			t.Errorf("metrics-enabled run (parallelism=%d) diverged from plain run\n--- plain ---\n%s--- instrumented ---\n%s",
				workers, sequential, instrumented)
		}
	}
}

func TestGoldenDeterminismEcommerce(t *testing.T) {
	testGoldenDeterminism(t, ecommerceGoldenDB)
}

func TestGoldenDeterminismJoinHeavy(t *testing.T) {
	testGoldenDeterminism(t, joinheavyGoldenDB)
}
