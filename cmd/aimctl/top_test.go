package main

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aim/internal/obs"
	"aim/internal/telemetry"
)

// TestRunTop drives `aimctl top -iterations 1` against a served registry.
// Between its two scrapes the registry gains a known counter delta and fast
// spans on top of earlier slow ones: the rendered rate must be the delta over
// the interval top reports, and the span p95 must reflect only the fast
// spans (over the process lifetime, 10 slow spans of 110 put p95 among the
// slow ones).
func TestRunTop(t *testing.T) {
	reg := obs.NewRegistry()
	frames := reg.Counter("server.frames")
	frames.Add(1000)
	spanN := func(n int, d time.Duration) {
		for i := 0; i < n; i++ {
			sp := reg.StartSpan("server/stmt")
			time.Sleep(d)
			sp.End()
		}
	}
	spanN(10, 20*time.Millisecond)
	const delta = 600

	h := telemetry.New(telemetry.Options{Registry: reg}).Handler()
	var scrapes atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/metricsz" && scrapes.Add(1) == 1 { // the interval's traffic
			frames.Add(delta)
			spanN(100, 0)
		}
	}))
	defer hs.Close()

	var out, errw strings.Builder
	start := time.Now()
	if status := run([]string{"top", "-url", hs.URL, "-interval", "200ms", "-iterations", "1"}, &out, &errw); status != 0 {
		t.Fatalf("top exited %d: %s", status, errw.String())
	}
	wall := time.Since(start)
	if n := scrapes.Load(); n != 2 {
		t.Errorf("top scraped %d times, want 2", n)
	}
	got := out.String()
	t.Logf("\n%s", got)

	m := regexp.MustCompile(`\(interval ([0-9.]+)s\)`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no interval in the header:\n%s", got)
	}
	elapsed, _ := strconv.ParseFloat(m[1], 64)
	if elapsed < 0.2 || elapsed > wall.Seconds()+0.001 {
		t.Errorf("interval %.3fs outside [0.2s, %.3fs]", elapsed, wall.Seconds())
	}
	m = regexp.MustCompile(`(?m)^\s+([0-9.]+) /s\s+server_frames$`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no server_frames rate:\n%s", got)
	}
	rate, _ := strconv.ParseFloat(m[1], 64)
	// The header rounds the interval to the millisecond; the rate is exact.
	if lo, hi := delta/(elapsed+0.0005), delta/(elapsed-0.0005); rate < lo-0.005 || rate > hi+0.005 {
		t.Errorf("server_frames rate %.2f/s, want %d over %.3fs", rate, delta, elapsed)
	}

	m = regexp.MustCompile(`(?m)^\s+([0-9.e+-]+)\s+([0-9.e+-]+) ms  server_stmt \((\d+)\)$`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no server_stmt span row:\n%s", got)
	}
	if p95, _ := strconv.ParseFloat(m[2], 64); p95 >= 10 {
		t.Errorf("span p95 %.3fms includes the slow spans before the interval", p95)
	}
	if m[3] != "100" {
		t.Errorf("span row counts %s observations, want the interval's 100", m[3])
	}
}
