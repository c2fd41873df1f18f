// Package obs is the advisor pipeline's observability layer: a
// dependency-free metrics registry (atomic counters, gauges, bounded
// histograms with approximate percentiles) plus a lightweight span API for
// phase timings (span.go). The paper pitches AIM as *auditable* automation —
// §VII's no-regression machinery only earns trust when operators can see
// what the advisor did and why; this package is the substrate the
// explanations and fleet-stats pipeline export through.
//
// Design rules:
//
//   - Nil is off. Every method is safe on a nil *Registry, nil *Counter,
//     nil *Gauge, nil *Histogram and nil *Span, and the disabled path does
//     zero allocation — instrumented components resolve metric handles once
//     at attach time (SetObs) and pay a single nil check per event when
//     observability is off.
//   - Metrics never influence behaviour. Instrumentation records what
//     happened; the golden determinism tests assert recommendations are
//     byte-identical with the registry attached and detached.
//   - Naming convention: "<package>.<metric>" in snake case
//     (optimizer.whatif_seconds, costcache.entries, pool.queue_depth);
//     span names are slash-separated phase paths (advisor/rank/gains).
//     Cross-cutting families may use a domain prefix instead of a package
//     name: the fault-injection counters are faults.{injected,retries,
//     degraded} (emitted by internal/failpoint) because they aggregate
//     events from every instrumented call site, not one package's.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways (queue depths,
// live cache entries, active workers).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (negative deltas allowed). No-op on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge reading (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram buckets and percentile coverage. Buckets are base-2
// exponential: bucket i covers [2^(i-histBias-1), 2^(i-histBias)), spanning
// ~1e-12 (sub-nanosecond timings in seconds) to ~3.6e16 (large counts) —
// every observation in the pipeline lands inside the range.
const (
	histBuckets = 96
	histBias    = 40
)

// Histogram is a bounded, lock-free histogram over float64 observations.
// Memory is fixed (histBuckets atomic slots); percentiles are approximate
// (bucket-resolution, ~±41% worst case at base-2 buckets) which is plenty
// for latency-distribution shape and p50/p95/p99 reporting. There is no
// separate count: the count is the sum of the buckets, so a snapshot taken
// under concurrent observation can never report fewer observations than its
// buckets hold.
type Histogram struct {
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	buckets [histBuckets]atomic.Int64
}

// bucketFor maps an observation to its bucket ordinal.
func bucketFor(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	_, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	i := exp + histBias
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value. No-op on a nil histogram; never allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketFor(v)].Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the total of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCount is one non-empty histogram bucket in a snapshot: the count of
// observations that fell inside (UpperBound's bucket, non-cumulative).
type BucketCount struct {
	// UpperBound is the bucket's exclusive upper bound (2^(i-histBias)).
	UpperBound float64
	Count      int64
}

// HistogramSnapshot is a point-in-time copy of a histogram's state, used by
// exporters that need the full bucket distribution rather than fixed
// percentiles (the /metricsz Prometheus endpoint).
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []BucketCount // non-empty buckets only, ascending bound
}

// Snapshot copies the histogram's current state; Count is the sum of the
// buckets it copied. Zero-value on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	out := HistogramSnapshot{Sum: h.Sum()}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			out.Count += n
			out.Buckets = append(out.Buckets, BucketCount{
				UpperBound: math.Exp2(float64(i - histBias)),
				Count:      n,
			})
		}
	}
	return out
}

// Quantile returns the approximate q-quantile (q in [0, 1]); 0 on nil or
// with no observations.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Quantile returns the approximate q-quantile (q in [0, 1]) of the
// snapshot; 0 with no observations. The answer is the representative value
// of the bucket containing the rank-q observation: the geometric midpoint of
// its bounds, except the zero bucket, which reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	at := s.Buckets[len(s.Buckets)-1]
	var cum int64
	for _, b := range s.Buckets {
		if cum += b.Count; cum >= rank {
			at = b
			break
		}
	}
	if at.UpperBound <= math.Exp2(-histBias) {
		return 0
	}
	return at.UpperBound * math.Sqrt2 / 2
}

// Registry holds named metrics and the span/trace machinery. A nil
// *Registry is the disabled state: every accessor returns nil handles and
// every operation is a no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
	spans      map[string]*Histogram

	spanSeq atomic.Uint64
	traceMu sync.Mutex
	trace   io.Writer
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		hists:      map[string]*Histogram{},
		spans:      map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback evaluated at snapshot time — for values
// that are cheaper to read on demand than to maintain (live LRU entry
// counts, pool sizes). Re-registering a name replaces the callback. No-op
// on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// spanHist returns the duration histogram for a span name.
func (r *Registry) spanHist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.spans[name]
	if !ok {
		h = &Histogram{}
		r.spans[name] = h
	}
	return h
}

// snapshotKeys returns the sorted key set of a map under the registry lock.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot is a point-in-time copy of every metric in a registry. It is the
// exporter-facing view: the /metricsz Prometheus renderer and the /statusz
// JSON endpoint read snapshots instead of holding the registry lock while
// formatting. GaugeFunc callbacks are evaluated (outside the registry lock)
// and folded into Gauges.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
	Spans      map[string]HistogramSnapshot
}

// Snapshot captures the registry's current state. Returns an empty (but
// non-nil-map) snapshot on a nil registry so exporters need no nil checks.
func (r *Registry) Snapshot() *Snapshot {
	out := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]HistogramSnapshot{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	for k, c := range r.counters {
		out.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		out.Gauges[k] = g.Value()
	}
	funcs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, fn := range r.gaugeFuncs {
		funcs[k] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	spans := make(map[string]*Histogram, len(r.spans))
	for k, h := range r.spans {
		spans[k] = h
	}
	r.mu.Unlock()
	// Callbacks and histogram copies run outside the lock: GaugeFunc
	// callbacks may take other components' locks (cache shards), and bucket
	// copies are O(histBuckets) each.
	for k, fn := range funcs {
		out.Gauges[k] = fn()
	}
	for k, h := range hists {
		out.Histograms[k] = h.Snapshot()
	}
	for k, h := range spans {
		out.Spans[k] = h.Snapshot()
	}
	return out
}

// WriteTo renders an expvar-style text snapshot of every metric, sorted by
// kind then name — the -metrics output of aimctl/aimbench. Histograms and
// spans report count, sum and approximate p50/p95/p99. Implements
// io.WriterTo; a nil registry writes nothing.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	snap := r.Snapshot()
	var n int64
	emit := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	for _, k := range sortedKeys(snap.Counters) {
		if err := emit("counter %-40s %d\n", k, snap.Counters[k]); err != nil {
			return n, err
		}
	}
	for _, k := range sortedKeys(snap.Gauges) {
		if err := emit("gauge   %-40s %d\n", k, snap.Gauges[k]); err != nil {
			return n, err
		}
	}
	histLines := func(kind string, hists map[string]HistogramSnapshot) error {
		for _, k := range sortedKeys(hists) {
			h := hists[k]
			if err := emit("%s %-40s count=%d sum=%.6g p50=%.3g p95=%.3g p99=%.3g\n",
				kind, k, h.Count, h.Sum, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := histLines("hist   ", snap.Histograms); err != nil {
		return n, err
	}
	return n, histLines("span   ", snap.Spans)
}
