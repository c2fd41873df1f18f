package server

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"aim/internal/obs"
	"aim/internal/telemetry"
)

// TestRecorderOverheadSmoke checks that the full query flight recorder —
// registry spans, slow-query capture with sampling, trace IDs on every
// statement and a concurrent reader rendering the registry's /metricsz
// exposition every 5ms — stays within 5% of a bare server on the statement
// round-trip path, plus absolute slack for timer noise. This is the
// serving-path analogue of the advisor-side TestMetricsOverheadSmoke;
// env-gated like its siblings because wall-clock comparisons are
// machine-sensitive (invoked by `make metricssmoke`).
func TestRecorderOverheadSmoke(t *testing.T) {
	if os.Getenv("AIM_METRICS_SMOKE") == "" {
		t.Skip("set AIM_METRICS_SMOKE=1 to run (invoked by make metricssmoke)")
	}
	const stmts = 400

	dial := func(addr string) *Client {
		t.Helper()
		c, err := Dial(addr, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Hello("smoke"); err != nil {
			t.Fatal(err)
		}
		return c
	}

	_, plainAddr := startTestServer(t, Options{})
	plain := dial(plainAddr)

	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(256, time.Hour, 10)
	slow.Instrument(reg)
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	defer func() { close(done); reader.Wait() }()
	go func() {
		defer reader.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				telemetry.WritePrometheus(io.Discard, reg.Snapshot())
			case <-done:
				return
			}
		}
	}()
	_, fullAddr := startTestServer(t, Options{Obs: reg, SlowLog: slow})
	full := dial(fullAddr)

	timeRun := func(c *Client, traced bool) time.Duration {
		t.Helper()
		start := time.Now()
		for i := 0; i < stmts; i++ {
			sql := fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i%200)
			var err error
			if traced {
				_, err = c.QueryTraced(fmt.Sprintf("t-0000-0-%d", i), sql)
			} else {
				_, err = c.Query(sql)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	// Warm both paths (plan caches, connection buffers) before timing, then
	// interleave best-of-N so ambient machine noise hits both variants.
	timeRun(plain, false)
	timeRun(full, true)
	const rounds = 5
	bestPlain, bestFull := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d := timeRun(plain, false); d < bestPlain {
			bestPlain = d
		}
		if d := timeRun(full, true); d < bestFull {
			bestFull = d
		}
	}

	if got := reg.Snapshot().Counters["slowlog.observed"]; got == 0 {
		t.Fatal("recorder was not actually capturing (slowlog.observed = 0)")
	}
	limit := bestPlain + bestPlain/20 + 20*time.Millisecond
	t.Logf("plain=%v recorder=%v limit=%v", bestPlain, bestFull, limit)
	if bestFull > limit {
		t.Errorf("recorder-on run %v exceeds %v (plain %v + 5%% + 20ms slack)",
			bestFull, limit, bestPlain)
	}
}
