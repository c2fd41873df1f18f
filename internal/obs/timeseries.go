package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// TSQuantiles is the per-sample view of one histogram or span family:
// cumulative count movement over the sample interval plus the approximate
// distribution quantiles at sample time.
type TSQuantiles struct {
	// CountDelta is how many observations landed during the interval.
	CountDelta int64 `json:"count_delta"`
	// SumDelta is the observed-value mass added during the interval.
	SumDelta float64 `json:"sum_delta"`
	// P50/P95/P99 are the lifetime-distribution quantiles at sample time
	// (bucket-resolution, like every obs histogram quantile).
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// TSSample is one tick of the time-series recorder: for every counter the
// absolute value and the per-second rate since the previous tick, every
// gauge's instantaneous reading, and every histogram/span family's interval
// movement + quantiles. The first tick of a run carries no rates (there is
// no previous tick to difference against).
type TSSample struct {
	TSUS int64 `json:"ts_us"`
	// IntervalSeconds is the wall clock since the previous tick (0 on the
	// first).
	IntervalSeconds float64          `json:"interval_seconds"`
	Counters        map[string]int64 `json:"counters,omitempty"`
	// Rates are counter deltas divided by IntervalSeconds.
	Rates      map[string]float64     `json:"rates,omitempty"`
	Gauges     map[string]int64       `json:"gauges,omitempty"`
	Histograms map[string]TSQuantiles `json:"histograms,omitempty"`
	Spans      map[string]TSQuantiles `json:"spans,omitempty"`
}

// TimeSeries samples an obs registry into a fixed-size ring, turning the
// registry's lifetime-cumulative counters into rates and its histograms into
// per-interval movement — the "is the daemon healthier than an hour ago"
// view that a single cumulative scrape cannot answer. Ticking is pulled, not
// pushed: callers either drive Tick themselves (tests, the serve suite's
// per-round sampling) or run Start for a background ticker (aimd). Nil is
// off; sampling never mutates the registry.
type TimeSeries struct {
	reg *Registry

	mu   sync.Mutex
	ring ring[TSSample]
	prev *Snapshot
	last time.Time
}

// NewTimeSeries returns a recorder over reg keeping the last capacity
// samples (<= 0 defaults to 360). A nil registry yields a nil recorder.
func NewTimeSeries(reg *Registry, capacity int) *TimeSeries {
	if reg == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = 360
	}
	return &TimeSeries{reg: reg, ring: newRing[TSSample](capacity)}
}

// Tick takes one sample at now. No-op on a nil recorder.
func (t *TimeSeries) Tick(now time.Time) {
	if t == nil {
		return
	}
	snap := t.reg.Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TSSample{
		TSUS:     now.UnixMicro(),
		Counters: snap.Counters,
		Gauges:   snap.Gauges,
	}
	if t.prev != nil {
		dt := now.Sub(t.last).Seconds()
		s.IntervalSeconds = dt
		if dt > 0 {
			s.Rates = make(map[string]float64, len(snap.Counters))
			for k, v := range snap.Counters {
				s.Rates[k] = float64(v-t.prev.Counters[k]) / dt
			}
		}
	}
	s.Histograms = quantileDeltas(snap.Histograms, prevHists(t.prev))
	s.Spans = quantileDeltas(snap.Spans, prevSpans(t.prev))
	t.prev = snap
	t.last = now
	t.ring.push(s) // at capacity the oldest sample falls off
}

func prevHists(s *Snapshot) map[string]HistogramSnapshot {
	if s == nil {
		return nil
	}
	return s.Histograms
}

func prevSpans(s *Snapshot) map[string]HistogramSnapshot {
	if s == nil {
		return nil
	}
	return s.Spans
}

// quantileDeltas folds histogram snapshots into per-interval movement +
// current quantiles. Quantiles are recomputed from the cumulative bucket
// counts — the same bucket-resolution answer Histogram.Quantile gives.
func quantileDeltas(cur, prev map[string]HistogramSnapshot) map[string]TSQuantiles {
	if len(cur) == 0 {
		return nil
	}
	out := make(map[string]TSQuantiles, len(cur))
	for k, h := range cur {
		q := TSQuantiles{CountDelta: h.Count, SumDelta: h.Sum}
		if p, ok := prev[k]; ok {
			q.CountDelta -= p.Count
			q.SumDelta -= p.Sum
		}
		q.P50 = h.Quantile(0.50)
		q.P95 = h.Quantile(0.95)
		q.P99 = h.Quantile(0.99)
		out[k] = q
	}
	return out
}

// Samples copies the ring, oldest first (nil on a nil or empty recorder).
func (t *TimeSeries) Samples() []TSSample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.snapshot()
}

// MarshalJSON renders the recorder as the /timeseriesz payload: capacity,
// live sample count, and the samples oldest-first. Safe on nil (renders an
// empty payload).
func (t *TimeSeries) MarshalJSON() ([]byte, error) {
	payload := struct {
		Capacity int        `json:"capacity"`
		Samples  []TSSample `json:"samples"`
	}{Samples: []TSSample{}}
	if t != nil {
		payload.Capacity = len(t.ring.buf)
		if s := t.Samples(); s != nil {
			payload.Samples = s
		}
	}
	return json.Marshal(payload)
}

// Start launches a background ticker sampling every interval until Stop.
// Returns a stop function (safe to call more than once); on a nil recorder
// the stop function is a no-op.
func (t *TimeSeries) Start(interval time.Duration) (stop func()) {
	if t == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		t.Tick(time.Now())
		for {
			select {
			case now := <-tick.C:
				t.Tick(now)
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
