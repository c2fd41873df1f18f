package telemetry_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"aim/internal/audit"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/telemetry"
)

// TestTelemetrySmoke is the `make telemetrysmoke` entry point: it boots a
// real telemetry server on a loopback listener (not httptest), scrapes every
// endpoint over actual TCP with a plain HTTP client, and validates each
// response shape — the same checks an ops runbook would script against a
// production deployment. Env-gated because it binds a real socket; the
// in-process handler tests cover the same code paths in plain `go test`.
func TestTelemetrySmoke(t *testing.T) {
	if os.Getenv("AIM_TELEMETRY_SMOKE") == "" {
		t.Skip("set AIM_TELEMETRY_SMOKE=1 to run (invoked by make telemetrysmoke)")
	}

	reg := obs.NewRegistry()
	db := engine.New("smoke")
	db.SetObs(reg)
	db.MustExec(`CREATE TABLE items (id INT, grp INT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE INDEX aim_items_grp ON items (grp)`)
	for i := 0; i < 50; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO items VALUES (%d, %d)", i, i%5))
	}
	db.Analyze()
	db.MustExec("SELECT id FROM items WHERE grp = 7")

	journal := audit.New(io.Discard)
	srv := telemetry.New(telemetry.Options{
		Registry: reg,
		DB:       db,
		Detector: regression.NewDetector(0.5),
		Audit:    journal,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) string {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, body)
		}
		return string(body)
	}

	// /healthz: fixed liveness body.
	if body := get("/healthz"); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz body = %q, want ok", body)
	}

	// /metricsz: Prometheus text exposition — every series line must belong
	// to a family declared by a preceding # TYPE header.
	metrics := get("/metricsz")
	declared := map[string]bool{}
	for _, line := range strings.Split(metrics, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE header %q", line)
			}
			declared[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok && declared[trimmed] {
				base = trimmed
				break
			}
		}
		if !declared[base] {
			t.Errorf("series %q has no # TYPE header", name)
		}
	}
	if !strings.Contains(metrics, "exec_rows_read") {
		t.Errorf("/metricsz missing exec_rows_read counter:\n%s", metrics)
	}

	// /statusz: JSON document carrying every advertised section.
	var status map[string]any
	if err := json.Unmarshal([]byte(get("/statusz")), &status); err != nil {
		t.Fatalf("/statusz not valid JSON: %v", err)
	}
	for _, key := range []string{"uptime_seconds", "indexes", "regression_baselines", "failpoints", "prepared", "audit_records"} {
		if _, ok := status[key]; !ok {
			t.Errorf("/statusz missing %q section", key)
		}
	}

	// /debug/pprof: the index page plus a delta-free profile endpoint.
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing goroutine profile listing")
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned empty body")
	}
}
