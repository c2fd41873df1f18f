package core

import (
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"aim/internal/audit"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/telemetry"
	"aim/internal/workload"
)

// TestMetricsOverheadSmoke checks that a fully instrumented advisor run
// (registry + spans + pool metrics) stays within 5% of an uninstrumented
// run, plus a small absolute slack for timer noise. Wall-clock comparisons
// are inherently machine-sensitive, so the test only runs when
// AIM_METRICS_SMOKE=1 (set by `make metricssmoke`, part of `make check`) and
// is skipped in plain `go test ./...`.
func TestMetricsOverheadSmoke(t *testing.T) {
	if os.Getenv("AIM_METRICS_SMOKE") == "" {
		t.Skip("set AIM_METRICS_SMOKE=1 to run (invoked by make metricssmoke)")
	}

	setup := func(withMetrics bool) (*Advisor, *workload.Monitor, *obs.Registry) {
		db, queries := ecommerceGoldenDB(t)
		var reg *obs.Registry
		if withMetrics {
			reg = obs.NewRegistry()
			db.SetObs(reg)
		}
		cfg := DefaultConfig()
		cfg.Selection.MinExecutions = 1
		cfg.Selection.MinBenefit = 0
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
		return adv, mon, reg
	}

	advPlain, monPlain, _ := setup(false)
	advMetrics, monMetrics, reg := setup(true)

	timeRun := func(adv *Advisor, mon *workload.Monitor) time.Duration {
		start := time.Now()
		if _, err := adv.Recommend(mon); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// Warm both advisors (stats caches, cost caches) before timing.
	timeRun(advPlain, monPlain)
	pool.Instrument(reg)
	timeRun(advMetrics, monMetrics)
	pool.Instrument(nil)

	// Interleave best-of-N so ambient machine noise hits both variants.
	const rounds = 5
	bestPlain, bestMetrics := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d := timeRun(advPlain, monPlain); d < bestPlain {
			bestPlain = d
		}
		pool.Instrument(reg)
		d := timeRun(advMetrics, monMetrics)
		pool.Instrument(nil)
		if d < bestMetrics {
			bestMetrics = d
		}
	}

	limit := bestPlain + bestPlain/20 + 20*time.Millisecond
	t.Logf("plain=%v metrics=%v limit=%v", bestPlain, bestMetrics, limit)
	if bestMetrics > limit {
		t.Errorf("instrumented run %v exceeds %v (plain %v + 5%% + 20ms slack)",
			bestMetrics, limit, bestPlain)
	}
}

// TestFailpointOverheadSmoke checks that the failpoint sites threaded
// through the tuning loop cost nothing when injection is off: an advisor
// run with an active registry whose sites never match (the worst disabled
// case — every Inject does the atomic load plus a map miss) must stay
// within 1% of a run with no registry at all, plus absolute slack for
// timer noise. Gated like the metrics smoke because wall-clock comparisons
// are machine-sensitive.
func TestFailpointOverheadSmoke(t *testing.T) {
	if os.Getenv("AIM_METRICS_SMOKE") == "" {
		t.Skip("set AIM_METRICS_SMOKE=1 to run (invoked by make metricssmoke)")
	}
	if failpoint.Enabled() {
		t.Fatal("failpoints already active")
	}

	setup := func() (*Advisor, *workload.Monitor) {
		db, queries := ecommerceGoldenDB(t)
		cfg := DefaultConfig()
		cfg.Selection.MinExecutions = 1
		cfg.Selection.MinBenefit = 0
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
		return adv, mon
	}

	advOff, monOff := setup()
	advOn, monOn := setup()
	// A registry with one armed site no loop code path ever evaluates.
	noMatch, err := failpoint.Parse("nonexistent.site=err(1)", 1)
	if err != nil {
		t.Fatal(err)
	}

	timeRun := func(adv *Advisor, mon *workload.Monitor) time.Duration {
		start := time.Now()
		if _, err := adv.Recommend(mon); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	timeRun(advOff, monOff)
	failpoint.Activate(noMatch)
	timeRun(advOn, monOn)
	failpoint.Activate(nil)

	const rounds = 5
	bestOff, bestOn := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d := timeRun(advOff, monOff); d < bestOff {
			bestOff = d
		}
		failpoint.Activate(noMatch)
		d := timeRun(advOn, monOn)
		failpoint.Activate(nil)
		if d < bestOn {
			bestOn = d
		}
	}

	limit := bestOff + bestOff/100 + 10*time.Millisecond
	t.Logf("off=%v armed-no-match=%v limit=%v", bestOff, bestOn, limit)
	if bestOn > limit {
		t.Errorf("failpoint-armed run %v exceeds %v (off %v + 1%% + 10ms slack)",
			bestOn, limit, bestOff)
	}
}

// TestAuditOverheadSmoke extends the overhead gate to the decision journal
// and live telemetry: an advisor run with metrics, an attached audit journal
// AND a telemetry server being scraped concurrently must stay within 5% of
// a bare run, plus absolute slack. Journaling writes a handful of JSON
// lines per run and scraping reads the registry from another goroutine, so
// neither may show up in advisor wall-clock. Env-gated like its siblings.
func TestAuditOverheadSmoke(t *testing.T) {
	if os.Getenv("AIM_METRICS_SMOKE") == "" {
		t.Skip("set AIM_METRICS_SMOKE=1 to run (invoked by make metricssmoke)")
	}

	setup := func(instrumented bool) (*Advisor, *workload.Monitor, *obs.Registry) {
		db, queries := ecommerceGoldenDB(t)
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
			db.SetObs(reg)
			db.SetAudit(audit.New(io.Discard))
		}
		cfg := DefaultConfig()
		cfg.Selection.MinExecutions = 1
		cfg.Selection.MinBenefit = 0
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
		return adv, mon, reg
	}

	advPlain, monPlain, _ := setup(false)
	advFull, monFull, reg := setup(true)

	// A live scraper polling the exposition while the instrumented advisor
	// runs, mimicking a Prometheus agent hitting /metricsz.
	srv := telemetry.New(telemetry.Options{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + addr + "/metricsz")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain only
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()

	timeRun := func(adv *Advisor, mon *workload.Monitor) time.Duration {
		start := time.Now()
		if _, err := adv.Recommend(mon); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	timeRun(advPlain, monPlain)
	timeRun(advFull, monFull)

	const rounds = 5
	bestPlain, bestFull := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d := timeRun(advPlain, monPlain); d < bestPlain {
			bestPlain = d
		}
		if d := timeRun(advFull, monFull); d < bestFull {
			bestFull = d
		}
	}

	limit := bestPlain + bestPlain/20 + 20*time.Millisecond
	t.Logf("plain=%v metrics+audit+scrape=%v limit=%v", bestPlain, bestFull, limit)
	if bestFull > limit {
		t.Errorf("journaled+scraped run %v exceeds %v (plain %v + 5%% + 20ms slack)",
			bestFull, limit, bestPlain)
	}
}
