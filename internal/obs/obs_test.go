package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("z")
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram accumulated")
	}
	r.GaugeFunc("f", func() int64 { return 1 })
	sp := r.StartSpan("root")
	child := sp.Child("phase")
	child.End()
	sp.End()
	r.SetTraceWriter(nil)
	if n, err := r.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Errorf("nil WriteTo = (%d, %v)", n, err)
	}
}

func TestNilRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Add(1)
		h.Observe(0.5)
		sp := r.StartSpan("s")
		sp.Child("c").End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("hits") != c {
		t.Error("counter handle not stable")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 fast observations, 10 slow ones: p50 ~ 1ms, p95+ ~ 1s.
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got < 10.0 || got > 10.2 {
		t.Errorf("sum = %v", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.0005 || p50 > 0.002 {
		t.Errorf("p50 = %v, want ~0.001", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.5 || p99 > 2 {
		t.Errorf("p99 = %v, want ~1", p99)
	}
	if h.Quantile(0) == 0 && h.Count() > 0 {
		// q=0 clamps to the first observation's bucket, not zero.
		t.Error("q=0 returned 0 with observations present")
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := NewRegistry().Histogram("edge")
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1e300) // clamps to last bucket
	h.Observe(1e-300)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	// Must not panic and quantiles must be finite.
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		v := h.Quantile(q)
		if v < 0 {
			t.Errorf("quantile(%v) = %v", q, v)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("conc")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 4000 {
		t.Errorf("sum = %v", got)
	}
}

// TestHistogramSnapshotConsistentUnderObserve takes snapshots while four
// goroutines observe: every snapshot's Count must equal the sum of the
// buckets it holds, or the exposition's le="+Inf" bucket (written from
// Count) would fall below its last finite cumulative bucket.
func TestHistogramSnapshotConsistentUnderObserve(t *testing.T) {
	h := NewRegistry().Histogram("conc")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i%64) + 0.5)
				}
			}
		}()
	}
	bad := 0
	for i := 0; i < 20000; i++ {
		s := h.Snapshot()
		var held int64
		for _, b := range s.Buckets {
			held += b.Count
		}
		if held != s.Count {
			bad++
		}
	}
	close(stop)
	wg.Wait()
	if bad > 0 {
		t.Errorf("%d of 20000 snapshots report a Count other than their bucket sum", bad)
	}
}

func TestWriteToSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.hits").Add(7)
	r.Gauge("b.depth").Set(3)
	r.GaugeFunc("b.live", func() int64 { return 42 })
	r.Histogram("c.lat").Observe(0.25)
	sp := r.StartSpan("advisor")
	sp.Child("rank").End()
	sp.End()

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"counter a.hits", "7",
		"gauge   b.depth", "gauge   b.live", "42",
		"hist    c.lat", "count=1",
		"span    advisor ", "span    advisor/rank",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestSpanTraceJSON(t *testing.T) {
	r := NewRegistry()
	var buf strings.Builder
	r.SetTraceWriter(&buf)
	root := r.StartSpan("advisor")
	child := root.Child("generate")
	child.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d: %q", len(lines), buf.String())
	}
	type rec struct {
		Name    string  `json:"name"`
		ID      uint64  `json:"id"`
		Parent  uint64  `json:"parent"`
		StartUS int64   `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	}
	var childRec, rootRec rec
	if err := json.Unmarshal([]byte(lines[0]), &childRec); err != nil {
		t.Fatalf("child line not JSON: %v (%s)", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &rootRec); err != nil {
		t.Fatalf("root line not JSON: %v (%s)", err, lines[1])
	}
	if childRec.Name != "advisor/generate" || rootRec.Name != "advisor" {
		t.Errorf("names = %q, %q", childRec.Name, rootRec.Name)
	}
	if childRec.Parent != rootRec.ID {
		t.Errorf("child.parent = %d, root.id = %d", childRec.Parent, rootRec.ID)
	}
	if childRec.DurUS < 0 || rootRec.DurUS < childRec.DurUS {
		t.Errorf("durations inconsistent: root %v < child %v", rootRec.DurUS, childRec.DurUS)
	}
}

// TestHistogramSnapshotBuckets pins the bucket export the Prometheus
// endpoint renders: non-empty buckets only, ascending power-of-two upper
// bounds, counts matching the observations.
func TestHistogramSnapshotBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(0.75) // bucket upper bound 1
	h.Observe(0.75)
	h.Observe(3) // bucket upper bound 4
	snap := h.Snapshot()
	if snap.Count != 3 || snap.Sum != 4.5 {
		t.Fatalf("count=%d sum=%v", snap.Count, snap.Sum)
	}
	if len(snap.Buckets) != 2 {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
	if snap.Buckets[0].UpperBound != 1 || snap.Buckets[0].Count != 2 {
		t.Errorf("bucket[0] = %+v", snap.Buckets[0])
	}
	if snap.Buckets[1].UpperBound != 4 || snap.Buckets[1].Count != 1 {
		t.Errorf("bucket[1] = %+v", snap.Buckets[1])
	}
	var nilH *Histogram
	if s := nilH.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

// TestSpanAnnotate pins the trace-line annotation format the flight recorder
// relies on: key/value pairs appended to the span JSON, absent when no
// annotations were made, and nil-safe.
func TestSpanAnnotate(t *testing.T) {
	r := NewRegistry()
	var buf strings.Builder
	r.SetTraceWriter(&buf)

	r.StartSpan("server/stmt").
		Annotate("session", "lg-0001").
		Annotate("seq", "42").
		Annotate("trace", "t-0001-0-3").
		End()
	r.StartSpan("plain").End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d: %q", len(lines), buf.String())
	}
	var annotated map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &annotated); err != nil {
		t.Fatalf("annotated line not JSON: %v (%s)", err, lines[0])
	}
	if annotated["session"] != "lg-0001" || annotated["seq"] != "42" || annotated["trace"] != "t-0001-0-3" {
		t.Errorf("annotations = %v", annotated)
	}
	var plain map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &plain); err != nil {
		t.Fatalf("plain line not JSON: %v (%s)", err, lines[1])
	}
	if _, ok := plain["session"]; ok {
		t.Errorf("unannotated span leaked attrs: %v", plain)
	}

	var nilSpan *Span
	if nilSpan.Annotate("k", "v") != nil {
		t.Error("nil span Annotate should return nil")
	}
}

// TestHistogramEdgeBucketQuantiles pins quantile semantics at the bucket
// extremes, where `aimctl top` reads them from scraped buckets: the zero bucket
// reports 0, the overflow (96th) bucket reports its geometric midpoint, and
// a single observation pins every percentile to its bucket representative.
func TestHistogramEdgeBucketQuantiles(t *testing.T) {
	// Bucket 0: zero, negative, NaN and sub-range observations all land in
	// bucket 0, whose representative is exactly 0 at every percentile.
	h0 := &Histogram{}
	h0.Observe(0)
	h0.Observe(-3)
	h0.Observe(math.NaN())
	h0.Observe(1e-15) // below the bucket range floor
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got := h0.Quantile(q); got != 0 {
			t.Errorf("bucket-0 Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Overflow bucket: observations past the top of the range clamp into the
	// last (96th) bucket; its representative is the geometric midpoint of
	// [2^54, 2^55).
	hTop := &Histogram{}
	hTop.Observe(1e30)
	hTop.Observe(math.MaxFloat64)
	wantTop := math.Exp2(float64(histBuckets-1-histBias)) * math.Sqrt2 / 2
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got := hTop.Quantile(q); got != wantTop {
			t.Errorf("overflow Quantile(%v) = %v, want %v", q, got, wantTop)
		}
	}
	if snap := hTop.Snapshot(); len(snap.Buckets) != 1 ||
		snap.Buckets[0].UpperBound != math.Exp2(float64(histBuckets-1-histBias)) {
		t.Errorf("overflow snapshot = %+v", hTop.Snapshot())
	}

	// Single observation: p50 = p95 = p99 = the one bucket's representative.
	h1 := &Histogram{}
	h1.Observe(0.75)
	want := math.Sqrt2 / 2 // geometric midpoint of [0.5, 1)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got := h1.Quantile(q); got != want {
			t.Errorf("single-obs Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if h1.Count() != 1 || h1.Sum() != 0.75 {
		t.Errorf("count=%d sum=%v", h1.Count(), h1.Sum())
	}
}
