package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// runTop is the `aimctl top` subcommand: a terminal dashboard over a running
// aimd's /timeseriesz endpoint. Each refresh fetches the sample ring and
// renders the newest sample — counter rates, gauges and span latency
// quantiles — so an operator can watch a live tuning loop without wiring up
// a metrics stack.
//
//	aimctl top -url http://127.0.0.1:8080
//	aimctl top -url http://127.0.0.1:8080 -iterations 1   # one snapshot (scripts)
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
	for n := 0; *iterations == 0 || n < *iterations; n++ {
		if n > 0 {
			time.Sleep(*interval)
		}
		payload, err := fetchTimeSeries(client, strings.TrimSuffix(*url, "/")+"/timeseriesz")
		if err != nil {
			return a.fail(err)
		}
		renderTop(a.out, payload, *rows)
	}
	return 0
}

// topPayload mirrors the /timeseriesz wire shape (obs.TimeSeries.MarshalJSON).
type topPayload struct {
	Capacity int `json:"capacity"`
	Samples  []struct {
		TSUS            int64              `json:"ts_us"`
		IntervalSeconds float64            `json:"interval_seconds"`
		Rates           map[string]float64 `json:"rates,omitempty"`
		Gauges          map[string]int64   `json:"gauges,omitempty"`
		Histograms      map[string]topQ    `json:"histograms,omitempty"`
		Spans           map[string]topQ    `json:"spans,omitempty"`
	} `json:"samples"`
}

type topQ struct {
	CountDelta int64   `json:"count_delta"`
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	P99        float64 `json:"p99"`
}

func fetchTimeSeries(client *http.Client, url string) (*topPayload, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	p := &topPayload{}
	if err := json.Unmarshal(body, p); err != nil {
		return nil, fmt.Errorf("%s: %v", url, err)
	}
	return p, nil
}

func renderTop(w io.Writer, p *topPayload, maxRows int) {
	if len(p.Samples) == 0 {
		fmt.Fprintln(w, "aimctl top: no samples yet (is -timeseries-interval on?)")
		return
	}
	s := p.Samples[len(p.Samples)-1]
	fmt.Fprintf(w, "── %s  (interval %.1fs, ring %d/%d) ──\n",
		time.UnixMicro(s.TSUS).Format("15:04:05"), s.IntervalSeconds, len(p.Samples), p.Capacity)

	type kv struct {
		k string
		v float64
	}
	section := func(title, unit string, m map[string]kv) {
		if len(m) == 0 {
			return
		}
		rows := make([]kv, 0, len(m))
		for _, e := range m {
			rows = append(rows, e)
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].k < rows[j].k
		})
		if len(rows) > maxRows {
			rows = rows[:maxRows]
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, r := range rows {
			fmt.Fprintf(w, "  %12.2f %-6s %s\n", r.v, unit, r.k)
		}
	}

	rates := map[string]kv{}
	for k, v := range s.Rates {
		rates[k] = kv{k, v}
	}
	section("rates", "/s", rates)
	gauges := map[string]kv{}
	for k, v := range s.Gauges {
		gauges[k] = kv{k, float64(v)}
	}
	section("gauges", "", gauges)
	spans := map[string]kv{}
	for k, v := range s.Spans {
		if v.CountDelta > 0 {
			spans[k+" p95"] = kv{k + " p95", v.P95 * 1000}
		}
	}
	section("span latency (active this tick)", "ms", spans)
}
