// Command bench is the repository's benchmark: it drives a real aimd
// server (internal/server) over loopback TCP with two closed-loop clients
// while a control connection requests tuning cycles, on five workloads, and
// prints eight end-to-end metrics or, with -trace 1, the per-layer ones.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one measured value; n is the number of samples behind it (0
// when that has no meaning).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the eight end-to-end metrics from a measured window and
// fails on too few samples.
func endToEnd(res *result, sc scale) ([]metric, error) {
	reads, writes := latencies(res.samples)
	if len(reads) < sc.minReads || len(writes) < sc.minWrites || len(res.cycles) < sc.minCycles {
		return nil, fmt.Errorf("too few samples in the measured window: %d reads (need %d), %d writes (need %d), %d cycles (need %d)",
			len(reads), sc.minReads, len(writes), sc.minWrites, len(res.cycles), sc.minCycles)
	}
	cycles := make([]float64, len(res.cycles))
	for i, c := range res.cycles {
		cycles[i] = float64(c.end-c.start) / 1e6
	}
	setups := append([]float64(nil), res.setupS...)
	return []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"stmt_per_s", res.stmtPerS, "1/s", len(res.samples)},
		{"read_p50_us", percentile(reads, 0.50), "us", len(reads)},
		{"read_p95_us", percentile(reads, 0.95), "us", len(reads)},
		{"write_p50_us", percentile(writes, 0.50), "us", len(writes)},
		{"write_p95_us", percentile(writes, 0.95), "us", len(writes)},
		{"cycle_iqm_ms", midmean(cycles), "ms", len(cycles)},
		{"live_heap_mb", res.heapMB, "MiB", 1},
	}, nil
}

// runWorkload runs one workload once and returns its end-to-end metrics,
// its per-layer metrics when trace is set, and the run's tallies.
func runWorkload(w *spec, seed int64, seconds float64, trace bool, traceOut string, sc scale) (e2e, layers []metric, res *result, err error) {
	run := runServing
	if w.tune {
		run = runTune
	}
	if res, err = run(w, seed, seconds, sc); err != nil {
		return nil, nil, nil, err
	}
	if e2e, err = endToEnd(res, sc); err != nil {
		return nil, nil, res, err
	}
	if trace {
		if layers, err = perLayer(w, res, seed, sc, traceOut); err != nil {
			return nil, nil, res, err
		}
	}
	// A value that is not a number, or an end-to-end one that is zero or the
	// run length, is a placeholder and not a measurement.
	for _, m := range layers {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, nil, res, fmt.Errorf("%s = %v is not a measurement", m.name, m.value)
		}
	}
	for _, m := range e2e {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value <= 0 || m.value == seconds {
			return nil, nil, res, fmt.Errorf("%s = %v is not a measurement", m.name, m.value)
		}
	}
	return e2e, layers, res, nil
}

// printRun writes the human-readable table and, last, the JSON line.
func printRun(w *spec, ms []metric, res *result) {
	fmt.Printf("workload %s: window %.2fs, attempted %d, failed %d\n", w.name, res.window, res.attempted, res.failed)
	for _, m := range ms {
		fmt.Printf("  %-32s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, p := range res.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	rep := report{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		rep.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, _ := json.Marshal(rep) // a struct of numbers and strings always marshals
	fmt.Printf("%s\n", line)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all five, one after the other)")
		seed      = flag.Int64("seed", 1, "seed of the generated fixture values and statement streams")
		seconds   = flag.Float64("seconds", 16, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 = print the per-layer metrics instead of the end-to-end ones")
		traceOut  = flag.String("trace-out", "", "with -trace 1, file the spans are written to as JSON lines (default .bench_build/spans-<workload>.jsonl)")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and compare the pairs with BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file] [-selfcheck]")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []spec{*w}
	}
	fmt.Fprintf(os.Stderr, "bench: %s GOMAXPROCS=%d nproc=%d seed=%d clients=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *seed, clients, *seconds, *trace)

	passes := 1
	if *selfcheck {
		passes = 2
	}
	values := make([]map[string]float64, passes) // "workload/metric" -> value
	ok := true
	for pass := range values {
		values[pass] = map[string]float64{}
		for i := range selected {
			w := &selected[i]
			ms, layers, res, err := runWorkload(w, *seed, *seconds, *trace == 1, *traceOut, fullScale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			if *trace == 1 {
				ms = layers
			}
			printRun(w, ms, res)
			ok = ok && len(res.problems) == 0
			for _, m := range ms {
				values[pass][w.name+"/"+m.name] = m.value
			}
			// The next workload starts from an empty heap.
			debug.FreeOSMemory()
		}
	}
	if *selfcheck && !compare(values[0], values[1]) {
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

// compare prints both passes' values per workload and metric with their
// relative difference and the bound, and reports whether every pair with a
// bound stayed within it.
func compare(a, b map[string]float64) bool {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return false
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok := true
	fmt.Printf("%-40s %14s %14s %8s %6s\n", "selfcheck", "first", "second", "diff", "bound")
	for _, k := range keys {
		diff := math.Abs(a[k]-b[k]) / math.Max(math.Abs(a[k]), math.Abs(b[k]))
		bound, bounded := bounds[k[strings.IndexByte(k, '/')+1:]]
		mark := ""
		if bounded && diff > bound {
			mark, ok = "  EXCEEDS", false
		}
		fmt.Printf("%-40s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", k, a[k], b[k], 100*diff, 100*bound, mark)
	}
	return ok
}

// loadBounds reads the end-to-end metrics' regression bounds.
func loadBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
