package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"aim/internal/obs"
	"aim/internal/telemetry"
)

// runTop is the `aimctl top` subcommand: a terminal dashboard over a running
// aimd's /metricsz endpoint. It scrapes once, then once per refresh, and
// renders each scrape against the one before — counter rates over the
// elapsed time, gauges, and span latency quantiles of the interval's
// observations alone — so an operator can watch a live tuning loop without
// wiring up a metrics stack. The daemon keeps no history; top does.
//
//	aimctl top -url http://127.0.0.1:8080
//	aimctl top -url http://127.0.0.1:8080 -iterations 1   # two scrapes, one render (scripts)
func (a *app) runTop(args []string) int {
	fs := flag.NewFlagSet("aimctl top", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "aimd telemetry base URL")
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	iterations := fs.Int("iterations", 0, "refresh count before exiting (0 = until interrupted)")
	rows := fs.Int("rows", 12, "max rows per section")
	if status, done := a.parse(fs, args); done {
		return status
	}

	client := &http.Client{Timeout: 10 * time.Second}
	metricsURL := strings.TrimSuffix(*url, "/") + "/metricsz"
	prev, prevAt, err := scrape(client, metricsURL)
	if err != nil {
		return a.fail(err)
	}
	for n := 0; *iterations == 0 || n < *iterations; n++ {
		time.Sleep(*interval)
		cur, at, err := scrape(client, metricsURL)
		if err != nil {
			return a.fail(err)
		}
		renderTop(a.out, prev, cur, at, at.Sub(prevAt), *rows)
		prev, prevAt = cur, at
	}
	return 0
}

// scrape fetches and parses one exposition, stamped with when it was taken.
func scrape(client *http.Client, url string) (*obs.Snapshot, time.Time, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, time.Time{}, err
	}
	at := time.Now()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, at, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	snap, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, at, fmt.Errorf("%s: %v", url, err)
	}
	return snap, at, nil
}

// intervalHist is what a histogram observed between two scrapes: the
// per-bucket differences of its two lifetime snapshots.
func intervalHist(cur, prev obs.HistogramSnapshot) obs.HistogramSnapshot {
	before := make(map[float64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		before[b.UpperBound] = b.Count
	}
	var out obs.HistogramSnapshot
	for _, b := range cur.Buckets {
		if n := b.Count - before[b.UpperBound]; n > 0 {
			out.Count += n
			out.Buckets = append(out.Buckets, obs.BucketCount{UpperBound: b.UpperBound, Count: n})
		}
	}
	return out
}

// renderTop writes one refresh: the scrape cur taken at at, differenced
// against prev taken elapsed earlier. Each section lists at most maxRows
// rows, largest first.
func renderTop(w io.Writer, prev, cur *obs.Snapshot, at time.Time, elapsed time.Duration, maxRows int) {
	fmt.Fprintf(w, "── %s  (interval %.3fs) ──\n", at.Format("15:04:05"), elapsed.Seconds())

	type row struct {
		v    float64
		line string
	}
	section := func(title string, rows []row) {
		if len(rows) == 0 {
			return
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].line < rows[j].line
		})
		fmt.Fprintln(w, title)
		for _, r := range rows[:min(len(rows), maxRows)] {
			fmt.Fprintln(w, r.line)
		}
	}

	var rates, gauges, spans []row
	if dt := elapsed.Seconds(); dt > 0 {
		for k, v := range cur.Counters {
			r := float64(v-prev.Counters[k]) / dt
			rates = append(rates, row{r, fmt.Sprintf("  %12.2f /s     %s", r, k)})
		}
	}
	section("rates", rates)
	for k, v := range cur.Gauges {
		gauges = append(gauges, row{float64(v), fmt.Sprintf("  %12d        %s", v, k)})
	}
	section("gauges", gauges)
	for k, h := range cur.Spans {
		if d := intervalHist(h, prev.Spans[k]); d.Count > 0 {
			p50, p95 := d.Quantile(0.50)*1000, d.Quantile(0.95)*1000
			spans = append(spans, row{p95, fmt.Sprintf("  %10.3g %10.3g ms  %s (%d)", p50, p95, k, d.Count)})
		}
	}
	section("span latency (active this tick): p50 p95", spans)
}
