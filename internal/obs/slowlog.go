package obs

import (
	"sync"
	"time"
)

// SlowEntry is one captured statement in the slow-query log: identity
// (session, per-session sequence, wire-propagated trace ID), the raw SQL,
// the plan shape the optimizer chose, the executor's per-operator counters,
// and the observed wall latency. Slow marks an over-threshold capture;
// false means the entry is one of the deterministic 1-in-N samples that
// keep the log representative of the whole stream, not just its tail.
type SlowEntry struct {
	TSUS    int64  `json:"ts_us"`
	Session string `json:"session,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Trace   string `json:"trace,omitempty"`
	SQL     string `json:"sql"`
	// Plan is the optimizer's plan description (one line per step).
	Plan []string `json:"plan,omitempty"`
	// Operator counters, copied from the executor's Stats for the statement.
	RowsRead    int64 `json:"rows_read,omitempty"`
	RowsSent    int64 `json:"rows_sent,omitempty"`
	PageReads   int64 `json:"page_reads,omitempty"`
	SortRows    int64 `json:"sort_rows,omitempty"`
	RowsWritten int64 `json:"rows_written,omitempty"`
	IndexWrites int64 `json:"index_writes,omitempty"`
	// CPUSeconds is the modelled CPU cost; LatencySeconds the wall clock
	// observed at the server (gate waits included — that is what the client
	// experienced).
	CPUSeconds     float64 `json:"cpu_seconds,omitempty"`
	LatencySeconds float64 `json:"latency_seconds"`
	Slow           bool    `json:"slow"`
}

// SlowLog is a bounded ring of captured statements: everything at or over
// the latency threshold, plus a deterministic 1-in-N sample of the rest so
// the log shows the shape of normal traffic next to its outliers. The ring
// overwrites oldest entries; memory is fixed at capacity. Nil is off: every
// method on a nil *SlowLog is a no-op costing one nil check, and a disabled
// log allocates nothing per statement.
//
// Sampling determinism contract: the k-th non-slow statement observed
// (1-based, in Observe call order) is captured iff (k-1) % sampleN == 0.
// For a serialized stream the captured set is a pure function of the stream;
// under concurrent sessions the arrival order — and therefore which
// statements land in the sample — depends on interleaving, but the 1-in-N
// rate does not. Capture never feeds back into execution.
type SlowLog struct {
	threshold time.Duration
	sampleN   int

	mu   sync.Mutex
	ring ring[SlowEntry]
	seen int64 // non-slow statements observed (sampling clock)

	observed *Counter // slowlog.observed — statements offered
	slow     *Counter // slowlog.slow — over-threshold captures
	sampled  *Counter // slowlog.sampled — 1-in-N captures
	evicted  *Counter // slowlog.evicted — ring overwrites
}

// NewSlowLog returns a slow-query log keeping up to capacity entries,
// capturing statements with latency >= threshold, and sampling one in
// sampleN of the rest (0 disables sampling). capacity <= 0 defaults to 256.
func NewSlowLog(capacity int, threshold time.Duration, sampleN int) *SlowLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &SlowLog{
		threshold: threshold,
		sampleN:   sampleN,
		ring:      newRing[SlowEntry](capacity),
	}
}

// Instrument attaches the slowlog.* counters to r (nil detaches).
func (l *SlowLog) Instrument(r *Registry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r == nil {
		l.observed, l.slow, l.sampled, l.evicted = nil, nil, nil, nil
		return
	}
	l.observed = r.Counter("slowlog.observed")
	l.slow = r.Counter("slowlog.slow")
	l.sampled = r.Counter("slowlog.sampled")
	l.evicted = r.Counter("slowlog.evicted")
}

// Threshold returns the capture threshold (0 on nil).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// SampleN returns the 1-in-N sampling divisor (0 on nil or disabled).
func (l *SlowLog) SampleN() int {
	if l == nil {
		return 0
	}
	return l.sampleN
}

// Observe offers one executed statement. The entry is captured when its
// latency reaches the threshold or when it is the next 1-in-N sample;
// otherwise it is discarded. e.Slow and e.LatencySeconds are set from
// latency. No-op on a nil log.
func (l *SlowLog) Observe(e SlowEntry, latency time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observed.Inc()
	e.LatencySeconds = latency.Seconds()
	switch {
	case l.threshold > 0 && latency >= l.threshold:
		e.Slow = true
		l.slow.Inc()
	case l.sampleN > 0:
		k := l.seen
		l.seen++
		if k%int64(l.sampleN) != 0 {
			return
		}
		e.Slow = false
		l.sampled.Inc()
	default:
		return
	}
	if l.ring.push(e) {
		l.evicted.Inc()
	}
}

// Snapshot copies the captured entries, oldest first. Nil on a nil or empty
// log.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.snapshot()
}

// Len returns the number of captured entries held (0 on nil).
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.size
}
