package telemetry_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/costcache"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
	"aim/internal/telemetry"
	"aim/internal/workload"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"a.b-c":             "a_b_c",
		"core.partialorder": "core_partialorder",
		"exec.rows_read":    "exec_rows_read",
		"ns:sub":            "ns:sub",
		"7up":               "_7up",
		"weird name!":       "weird_name_",
	}
	for in, want := range cases {
		if got := telemetry.SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPrometheusGoldenExposition pins the exact exposition bytes for a
// deterministically populated registry: sorted families, sanitized names,
// cumulative histogram buckets with _sum/_count. Any format drift (ordering,
// float rendering, le labels) fails here first.
func TestPrometheusGoldenExposition(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("exec.rows_read").Add(5)
	reg.Counter("core.selected").Add(2)
	reg.Gauge("regression.baselines").Set(3)
	h := reg.Histogram("whatif.cost-micros")
	h.Observe(0.75)
	h.Observe(0.75)
	h.Observe(3)

	var sb strings.Builder
	telemetry.WritePrometheus(&sb, reg.Snapshot())
	want := `# TYPE core_selected counter
core_selected 2
# TYPE exec_rows_read counter
exec_rows_read 5
# TYPE regression_baselines gauge
regression_baselines 3
# TYPE whatif_cost_micros histogram
whatif_cost_micros_bucket{le="1"} 2
whatif_cost_micros_bucket{le="4"} 3
whatif_cost_micros_bucket{le="+Inf"} 3
whatif_cost_micros_sum 4.5
whatif_cost_micros_count 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// roundTrip writes snap, parses the exposition back and writes it again: the
// two expositions must be byte-identical.
func roundTrip(t *testing.T, snap *obs.Snapshot) string {
	t.Helper()
	var first, second strings.Builder
	telemetry.WritePrometheus(&first, snap)
	back, err := telemetry.ParsePrometheus(strings.NewReader(first.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, first.String())
	}
	telemetry.WritePrometheus(&second, back)
	if first.String() != second.String() {
		t.Errorf("round trip changed the exposition:\n--- written ---\n%s--- rewritten ---\n%s", first.String(), second.String())
	}
	return first.String()
}

// TestPrometheusRoundTrip parses expositions back: the golden test's
// registry, and a seeded random registry with counters, gauges, histograms
// and spans, names that need sanitizing and an empty histogram.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("exec.rows_read").Add(5)
	reg.Counter("core.selected").Add(2)
	reg.Gauge("regression.baselines").Set(3)
	h := reg.Histogram("whatif.cost-micros")
	h.Observe(0.75)
	h.Observe(0.75)
	h.Observe(3)
	roundTrip(t, reg.Snapshot())

	r := rand.New(rand.NewSource(7))
	reg = obs.NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter(fmt.Sprintf("pkg%d.count-%d", i%3, i)).Add(r.Int63n(1 << 40))
		reg.Gauge(fmt.Sprintf("%dgauge.v %d", i, i)).Set(r.Int63n(2000) - 1000)
		h := reg.Histogram(fmt.Sprintf("hist.h%d", i))
		for n := r.Intn(50); n > 0; n-- {
			h.Observe(r.ExpFloat64() * math.Pow(10, float64(r.Intn(12)-6)))
		}
		sp := reg.StartSpan(fmt.Sprintf("phase/step-%d", i%4))
		sp.End()
	}
	reg.Histogram("hist.empty")
	out := roundTrip(t, reg.Snapshot())
	for _, want := range []string{"hist_empty_count 0", "# TYPE span_phase_step_0_seconds histogram", "# TYPE _0gauge_v_0 gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("random exposition lacks %q", want)
		}
	}
	back, _ := telemetry.ParsePrometheus(strings.NewReader(out))
	if got := back.Spans["phase_step_0"].Count; got != 5 {
		t.Errorf("span phase_step_0 parsed back with count %d, want 5", got)
	}
}

// TestParsePrometheusRejectsInvalidBuckets: decreasing cumulative buckets
// and a le="+Inf" bucket other than _count are not a valid exposition.
func TestParsePrometheusRejectsInvalidBuckets(t *testing.T) {
	for _, body := range []string{
		"# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
	} {
		if _, err := telemetry.ParsePrometheus(strings.NewReader(body)); err == nil {
			t.Errorf("parsed an invalid exposition without error:\n%s", body)
		}
	}
}

// benchDB builds a small seeded two-table database with a mixed workload,
// mirroring the core golden harness.
func benchDB(t testing.TB) (*engine.DB, *workload.Monitor) {
	t.Helper()
	db := engine.New("telemetry_test")
	db.MustExec(`CREATE TABLE products (id INT, category INT, brand INT, price FLOAT, PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE orders (id INT, product_id INT, customer INT, status INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 800; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO products VALUES (%d, %d, %d, %f)", i, r.Intn(30), r.Intn(80), r.Float64()*100))
	}
	for i := 0; i < 1600; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d)", i, r.Intn(800), r.Intn(300), r.Intn(4)))
	}
	db.Analyze()
	mon := workload.NewMonitor()
	queries := []string{
		"SELECT id, price FROM products WHERE category = 7 AND brand = 11",
		"SELECT id FROM orders WHERE customer = 17 AND status = 2",
		"SELECT id FROM orders WHERE product_id = 455",
		"UPDATE orders SET status = 3 WHERE id = 77",
	}
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
	return db, mon
}

// deterministicFamilies keeps only exposition families whose values cannot
// depend on scheduling: decision counters from the advisor core, executor
// work counters and storage counters. Timing histograms, span latencies,
// pool and cache activity legitimately vary run to run and across worker
// counts.
func deterministicFamilies(exposition string) string {
	var keep []string
	for _, line := range strings.Split(exposition, "\n") {
		name := strings.TrimPrefix(line, "# TYPE ")
		if strings.HasPrefix(name, "core_") || strings.HasPrefix(name, "exec_") || strings.HasPrefix(name, "storage_") {
			if !strings.Contains(name, "_seconds") && !strings.Contains(name, "micros") {
				keep = append(keep, line)
			}
		}
	}
	return strings.Join(keep, "\n")
}

// TestMetricsWorkerDeterminism runs the advisor at different worker counts
// over identical databases and requires the deterministic core of the
// exposition to be byte-identical — the /metricsz analogue of the golden
// recommendation-determinism suite.
func TestMetricsWorkerDeterminism(t *testing.T) {
	run := func(workers int) string {
		db, mon := benchDB(t)
		reg := obs.NewRegistry()
		db.SetObs(reg)
		cfg := core.DefaultConfig()
		cfg.Selection.MinExecutions = 1
		cfg.Selection.MinBenefit = 0
		cfg.Parallelism = workers
		adv := core.NewAdvisor(db, cfg)
		if _, err := adv.Recommend(mon); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		telemetry.WritePrometheus(&sb, reg.Snapshot())
		return sb.String()
	}
	base := deterministicFamilies(run(1))
	if !strings.Contains(base, "core_candidates") {
		t.Fatalf("filtered exposition lost the advisor counters:\n%s", base)
	}
	for _, workers := range []int{2, 4} {
		if got := deterministicFamilies(run(workers)); got != base {
			t.Errorf("workers=%d exposition differs:\n--- got ---\n%s\n--- want ---\n%s", workers, got, base)
		}
	}
}

func TestEndpoints(t *testing.T) {
	db, _ := benchDB(t)
	db.MustExec("CREATE INDEX aim_orders_cust ON orders (customer)")
	reg := obs.NewRegistry()
	db.SetObs(reg)
	// One template planned twice and one statement no template stands in for:
	// a miss, a hit and a bypass on the planner's memo.
	db.MustExec("SELECT id FROM orders WHERE status = 1")
	db.MustExec("SELECT id FROM orders WHERE status = 2")
	db.MustExec("SELECT id FROM orders WHERE status IN (1, 2)")
	reg.Counter("exec.statements").Inc()
	reg.Counter("server.windows_sealed").Add(4)
	reg.Counter("server.window_dropped").Add(1)
	reg.Counter("server.windows_dropped_busy").Add(2)

	var jb strings.Builder
	jrn := audit.New(&jb)
	jrn.Append(&audit.Record{Event: audit.EventAdopt, IndexKey: "orders(customer)"})

	det := regression.NewDetector(0.3)
	fr := failpoint.New(1)
	if err := fr.Set("storage.clone", "err(0.5)"); err != nil {
		t.Fatal(err)
	}
	failpoint.Activate(fr)
	defer failpoint.Activate(nil)

	srv := telemetry.New(telemetry.Options{Registry: reg, DB: db, Detector: det, Audit: jrn})
	srv.SetShadowReport(&shadow.Report{Accepted: true, Code: shadow.CodeAccepted, Reason: "accepted: 2 queries compared",
		Outcomes: []shadow.QueryOutcome{{Normalized: "SELECT ...", Replays: 3, BeforeCPU: 0.2, AfterCPU: 0.1}}})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metricsz"); code != 200 || !strings.Contains(body, "# TYPE exec_statements counter") {
		t.Errorf("/metricsz = %d:\n%s", code, body)
	} else {
		for _, line := range []string{"optimizer_prepared_hits 1", "optimizer_prepared_misses 1", "optimizer_prepared_evictions 0", "optimizer_prepared_bypass_in_list 1", "optimizer_prepared_bypass_like 0"} {
			if !strings.Contains(body, line+"\n") {
				t.Errorf("/metricsz lacks %q", line)
			}
		}
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	code, body := get("/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	var status struct {
		UptimeSeconds json.Number `json:"uptime_seconds"`
		WindowsSealed int64       `json:"windows_sealed"`
		WindowDropped int64       `json:"window_dropped"`
		DroppedBusy   int64       `json:"windows_dropped_busy"`
		Indexes       []struct {
			Name string `json:"name"`
		} `json:"indexes"`
		Shadow struct {
			Verdict    string `json:"verdict"`
			ReasonCode string `json:"reason_code"`
		} `json:"shadow"`
		Failpoints []struct {
			Name string `json:"name"`
		} `json:"failpoints"`
		Prepared     *costcache.Stats `json:"prepared"`
		AuditRecords int64            `json:"audit_records"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	// uptime_seconds must decode as a JSON number, not a duration string.
	if up, err := status.UptimeSeconds.Float64(); err != nil || up < 0 {
		t.Errorf("/statusz uptime_seconds = %q (%v)", status.UptimeSeconds, err)
	}
	if status.WindowsSealed != 4 || status.WindowDropped != 1 || status.DroppedBusy != 2 {
		t.Errorf("/statusz windows sealed=%d dropped=%d dropped_busy=%d, want 4/1/2",
			status.WindowsSealed, status.WindowDropped, status.DroppedBusy)
	}
	if len(status.Indexes) == 0 {
		t.Error("/statusz missing index set")
	}
	if status.Shadow.Verdict != "accepted" || status.Shadow.ReasonCode != "accepted" {
		t.Errorf("/statusz shadow = %+v", status.Shadow)
	}
	if len(status.Failpoints) != 1 || status.Failpoints[0].Name != "storage.clone" {
		t.Errorf("/statusz failpoints = %+v", status.Failpoints)
	}
	if status.AuditRecords != 1 {
		t.Errorf("/statusz audit_records=%d", status.AuditRecords)
	}
	if want := db.Optimizer.PreparedStats(); status.Prepared == nil || *status.Prepared != want || want.Hits == 0 || want.Entries == 0 {
		t.Errorf("/statusz prepared=%+v, the memo says %+v", status.Prepared, want)
	}
}

// TestFlightRecorderEndpoints covers /slowz: a populated source renders its
// ring, a nil source renders an empty-but-valid payload so dashboards never
// see JSON null.
func TestFlightRecorderEndpoints(t *testing.T) {
	slow := obs.NewSlowLog(8, 5*time.Millisecond, 100)
	slow.Observe(obs.SlowEntry{Session: "lg-0001", Seq: 3, Trace: "t-0001-0-3",
		SQL: "SELECT 1", Plan: []string{"Project", "Scan kv"}}, 7*time.Millisecond)

	srv := telemetry.New(telemetry.Options{Registry: obs.NewRegistry(), Slow: slow})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	get := func(path string) string {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s content-type = %q", path, ct)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	var slowPayload struct {
		ThresholdSeconds float64         `json:"threshold_seconds"`
		SampleN          int             `json:"sample_n"`
		Entries          []obs.SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal([]byte(get("/slowz")), &slowPayload); err != nil {
		t.Fatalf("/slowz not JSON: %v", err)
	}
	if slowPayload.ThresholdSeconds != 0.005 || slowPayload.SampleN != 100 {
		t.Errorf("/slowz config = %+v", slowPayload)
	}
	if len(slowPayload.Entries) != 1 || slowPayload.Entries[0].Trace != "t-0001-0-3" ||
		!slowPayload.Entries[0].Slow || len(slowPayload.Entries[0].Plan) != 2 {
		t.Errorf("/slowz entries = %+v", slowPayload.Entries)
	}

	// Recorder off: the endpoint stays valid JSON with an empty list.
	off := telemetry.New(telemetry.Options{})
	hsOff := httptest.NewServer(off.Handler())
	defer hsOff.Close()
	resp, err := http.Get(hsOff.URL + "/slowz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"entries": []`) {
		t.Errorf("disabled /slowz = %d %q", resp.StatusCode, body)
	}
}

// TestStartClose exercises the real listener path used by -telemetry-addr.
func TestStartClose(t *testing.T) {
	srv := telemetry.New(telemetry.Options{Registry: obs.NewRegistry()})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	if srv.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", srv.Addr(), addr)
	}
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still serving after Close")
	}
}
