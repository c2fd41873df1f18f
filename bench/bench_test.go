package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test pins.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	sort.Strings(out)
	return out
}

func specNames(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for half a second on a 2 000-row fixture,
// traced, and checks that exactly the workloads and metrics BENCHMARK.json
// names come out, every end-to-end value finite and positive.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want benchmarkSpec
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(have)
	if got := specNames(want.Workloads); !reflect.DeepEqual(have, got) {
		t.Fatalf("workloads %v, BENCHMARK.json names %v", have, got)
	}

	small := scale{
		events: 2000, narrowEvents: 2000, productRows: 800,
		setups: 1, div: 50,
		minReads: 1, minWrites: 1, minCycles: 1,
		maxCPURatio: 1,
	}
	for i := range workloads {
		w := &workloads[i]
		e2e, layers, res, err := runWorkload(w, 1, 0.5, true, filepath.Join(t.TempDir(), "spans.jsonl"), small)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.problems) > 0 || res.failed > 0 {
			t.Errorf("%s: %d failed, checks: %v", w.name, res.failed, res.problems)
		}
		if got, want := names(e2e), specNames(want.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json names %v", w.name, got, want)
		}
		if got, want := names(layers), specNames(want.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json names %v", w.name, got, want)
		}
		for _, m := range e2e {
			if !(m.value > 0) || math.IsInf(m.value, 0) {
				t.Errorf("%s/%s = %v", w.name, m.name, m.value)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 30}, {0.95, 48}, {1, 50}, {0.125, 15}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty input must give NaN, not a placeholder")
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// The middle half of eight values is the third to the sixth; the stray
	// 1000 does not count.
	if got := midmean([]float64{1000, 1, 2, 3, 5, 7, 8, 9}); got != 5.75 {
		t.Errorf("midmean = %v, want 5.75", got)
	}
	if got := midmean([]float64{6}); got != 6 {
		t.Errorf("midmean of one value = %v", got)
	}
}

func TestLatenciesCountsAndOrder(t *testing.T) {
	reads, writes := latencies([]sample{
		{0, 3000, false}, {0, 1000, false}, {0, 9000, true}, {0, 2000, false}, {0, 4000, true},
	})
	if !reflect.DeepEqual(reads, []float64{1, 2, 3}) || !reflect.DeepEqual(writes, []float64{4, 9}) {
		t.Errorf("reads %v writes %v", reads, writes)
	}
}

func TestOverlapping(t *testing.T) {
	ss := []sample{
		{start: 0, dur: 10},                // ends as the first cycle starts: outside
		{start: 5, dur: 10},                // straddles the first cycle's start
		{start: 12, dur: 2},                // inside the first cycle
		{start: 19, dur: 40},               // straddles its end, the longest
		{start: 14, dur: 100, write: true}, // writes are not reads
		{start: 20, dur: 5},                // starts as it ends: outside
		{start: 100, dur: 1},               // overlaps no cycle
	}
	inCycle, longest := overlapping(ss, []interval{{10, 20}, {200, 300}})
	if want := []float64{0.002, 0.01, 0.04}; !reflect.DeepEqual(inCycle, want) {
		t.Errorf("in-cycle reads %v, want %v", inCycle, want)
	}
	if want := []float64{40e-6}; !reflect.DeepEqual(longest, want) {
		t.Errorf("longest per cycle %v, want %v (a cycle overlapping no read is left out)", longest, want)
	}
}

// TestStreamsAreDeterministic: the same seed and client give the same
// statements, another client or seed another stream.
func TestStreamsAreDeterministic(t *testing.T) {
	events, err := buildEvents(1, 2000, true)
	if err != nil {
		t.Fatal(err)
	}
	product, err := buildProduct(50)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(w *spec, f *fixture, seed int64, client int) []stmt {
		next := w.gen(f, rand.New(rand.NewSource(clientSeed(seed, client))), client)
		out := make([]stmt, 200)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	for i := range workloads {
		w := &workloads[i]
		f := events
		if w.name == "tune_wide" {
			f = product
		}
		a := draw(w, f, 7, 0)
		if !reflect.DeepEqual(a, draw(w, f, 7, 0)) {
			t.Errorf("%s: same seed and client gave different statements", w.name)
		}
		if reflect.DeepEqual(a, draw(w, f, 7, 1)) {
			t.Errorf("%s: clients 0 and 1 share a stream", w.name)
		}
		if reflect.DeepEqual(a, draw(w, f, 8, 0)) {
			t.Errorf("%s: seeds 7 and 8 share a stream", w.name)
		}
	}
}
