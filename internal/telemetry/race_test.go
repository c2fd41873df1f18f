package telemetry_test

import (
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/experiments"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/scenarios"
	"aim/internal/server"
	"aim/internal/telemetry"
)

// TestScrapeDuringTuningLoop runs the §VI-D tuning loop (the codepush
// scenario on an experiments.Loop) with a telemetry server attached and
// hammers /metricsz and /statusz from concurrent scrapers for the whole run.
// Under -race this proves reading telemetry never races with the loop
// mutating the schema, the registry, the detector baselines or the journal.
// A minimum number of scrapes must succeed while the loop is live, and every
// /metricsz body must be a valid exposition: ParsePrometheus rejects
// cumulative buckets that decrease or a le="+Inf" bucket other than _count,
// which a histogram snapshot torn by concurrent observation would produce.
func TestScrapeDuringTuningLoop(t *testing.T) {
	var jb strings.Builder
	reg, jrn := obs.NewRegistry(), audit.New(&jb)
	sc := scenarios.NewCodePush()
	p := sc.Profile()
	r := rand.New(rand.NewSource(1))
	db, err := sc.Setup(r)
	if err != nil {
		t.Fatal(err)
	}
	db.SetObs(reg)
	db.SetAudit(jrn)
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	det := regression.NewDetector(0.5)
	det.RevertCooldown = p.RevertCooldown
	tel := telemetry.New(telemetry.Options{Registry: reg, DB: db, Detector: det, Audit: jrn})
	addr, err := tel.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	loop := experiments.NewLoop(db, cfg, det, r)
	loop.Sample, loop.Advance = sc.Statement, sc.Advance
	loop.Tuner.OnCycle = func(o server.Outcome) {
		if o.Report != nil {
			tel.SetShadowReport(o.Report)
		}
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	var metricsOK, statusOK atomic.Int64
	scrape := func(path string, ok *atomic.Int64, check func(string) bool) {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 && check(string(body)) {
				ok.Add(1)
			}
		}
	}
	for i := 0; i < 2; i++ {
		scrapers.Add(2)
		go scrape("/metricsz", &metricsOK, func(b string) bool {
			if _, err := telemetry.ParsePrometheus(strings.NewReader(b)); err != nil {
				t.Errorf("invalid /metricsz exposition: %v", err)
				return false
			}
			return strings.Contains(b, "# TYPE")
		})
		go scrape("/statusz", &statusOK, func(b string) bool { return strings.Contains(b, `"indexes"`) })
	}

	err = loop.Run(p.ReducedCycles, p.WindowStatements)
	close(stop)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if c := loop.Tuner; c.Adoptions == 0 || c.Reverted == 0 {
		t.Errorf("loop shape changed: adoptions=%d reverted=%d", c.Adoptions, c.Reverted)
	}
	if metricsOK.Load() == 0 || statusOK.Load() == 0 {
		t.Errorf("no successful live scrapes: metrics=%d status=%d", metricsOK.Load(), statusOK.Load())
	}
}
