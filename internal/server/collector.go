package server

import (
	"sort"
	"sync"

	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/obs"
)

// Record is one observed statement: which session executed it, its
// per-session sequence number, the execution statistics the engine reported,
// and the statement as sent, with the template and stamp the engine returned
// with its result (RecordOf) — or, built from SQL alone, without them: the
// tuner then resolves the template at ingest, without a stamp. Sessions observe
// concurrently, so arrival order in the buffer is nondeterministic; sealing
// orders by (session, seq) to give every window one canonical order
// regardless of goroutine interleaving — that is what makes a live window
// replayable bit-for-bit offline.
type Record struct {
	Session string
	Seq     uint64
	// Trace is the client-supplied trace ID ("" when the statement arrived
	// on a v1 frame). It rides the record into the tuning cycle so the audit
	// journal's window events can name the exact live statements that drove
	// a decision.
	Trace string
	SQL   string
	Stats exec.Stats

	template string // normalized text ("" = not resolved yet)
	stamp    uint64
}

// RecordOf is the record of statement sql, which a session executed with
// result res.
func RecordOf(session string, seq uint64, trace, sql string, res *engine.Result) Record {
	return Record{Session: session, Seq: seq, Trace: trace, SQL: sql, Stats: res.Stats, template: res.Template, stamp: res.Stamp}
}

// Collector buffers the live statement stream into sliding windows for the
// in-process tuner. When Window > 0 it seals automatically every Window
// statements; Flush seals on demand (the OpTune path and the drain path).
// The buffer is bounded: when the tuner falls behind, the oldest
// statements are dropped (counted, never silently, and in constant time)
// rather than growing without bound under sustained overload.
type Collector struct {
	// Window is the auto-seal threshold in statements (0 = manual only).
	Window int
	// MaxBuffered bounds the unsealed buffer (0 = 4×Window, or 4096 when
	// Window is 0).
	MaxBuffered int

	mu   sync.Mutex
	buf  []Record // grows to maxBuffered, a ring from then on
	head int      // the ring's oldest slot, which the next statement takes

	statements *obs.Counter // server.window_statements
	dropped    *obs.Counter // server.window_dropped
	sealedN    *obs.Counter // server.windows_sealed
}

// NewCollector returns a collector sealing every window statements
// (0 = manual), reporting into r (nil = metrics off).
func NewCollector(window int, r *obs.Registry) *Collector {
	return &Collector{
		Window:     window,
		statements: r.Counter("server.window_statements"),
		dropped:    r.Counter("server.window_dropped"),
		sealedN:    r.Counter("server.windows_sealed"),
	}
}

func (c *Collector) maxBuffered() int {
	if c.MaxBuffered > 0 {
		return c.MaxBuffered
	}
	if c.Window > 0 {
		return 4 * c.Window
	}
	return 4096
}

// Observe appends one executed statement and returns a sealed window when
// the auto-seal threshold was reached (nil otherwise). Safe for concurrent
// use by sessions.
func (c *Collector) Observe(rec Record) []Record {
	c.mu.Lock()
	c.statements.Inc()
	if len(c.buf) < c.maxBuffered() {
		c.buf = append(c.buf, rec)
	} else {
		c.buf[c.head] = rec
		c.head = (c.head + 1) % len(c.buf)
		c.dropped.Inc()
	}
	var buf []Record
	var head int
	if c.Window > 0 && len(c.buf) >= c.Window {
		buf, head = c.takeLocked()
	}
	c.mu.Unlock()
	return canonical(buf, head)
}

// Flush seals and returns everything buffered since the last seal (nil when
// empty).
func (c *Collector) Flush() []Record {
	c.mu.Lock()
	buf, head := c.takeLocked()
	c.mu.Unlock()
	return canonical(buf, head)
}

// takeLocked hands the buffer off for sealing; ordering it is the caller's
// job, once c.mu is released.
func (c *Collector) takeLocked() (buf []Record, head int) {
	if len(c.buf) > 0 {
		c.sealedN.Inc()
	}
	buf, head = c.buf, c.head
	c.buf, c.head = nil, 0
	return buf, head
}

// Buffered reports the number of unsealed statements.
func (c *Collector) Buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// canonical puts a taken buffer (arrival order starts at head) in
// SortWindow's order, in place and without comparing records: a session
// observes its statements in seq order, so its records already form an
// ascending run, and the runs laid out in label order are the sorted window.
// A run that is not ascending — no session produces one — falls back to
// SortWindow.
func canonical(buf []Record, head int) []Record {
	if len(buf) == 0 {
		return nil
	}
	type run struct {
		n, at int
		last  uint64
	}
	runs := map[string]*run{}
	var labels []string
	sorted := true
	for i := range buf {
		rec := &buf[(head+i)%len(buf)]
		r := runs[rec.Session]
		if r == nil {
			r = &run{}
			runs[rec.Session] = r
			labels = append(labels, rec.Session)
		}
		sorted = sorted && rec.Seq >= r.last
		r.last = rec.Seq
		r.n++
	}
	sort.Strings(labels)
	at := 0
	for _, label := range labels {
		runs[label].at = at
		at += runs[label].n
	}
	dest := make([]int, len(buf)) // slot -> the slot its record belongs in
	for i := range buf {
		slot := (head + i) % len(buf)
		r := runs[buf[slot].Session]
		dest[slot] = r.at
		r.at++
	}
	// Apply the permutation: every swap puts one record where it belongs.
	for slot := range buf {
		for d := dest[slot]; d != slot; d = dest[slot] {
			buf[slot], buf[d] = buf[d], buf[slot]
			dest[slot], dest[d] = dest[d], d
		}
	}
	if !sorted {
		SortWindow(buf)
	}
	return buf
}

// SortWindow orders a sealed window canonically: by session label, then by
// the session's own statement sequence. Within one session, seq order is
// the order the client issued statements; across sessions, the label order
// stands in for arrival order so the window is interleaving-independent.
func SortWindow(w []Record) {
	sort.Slice(w, func(i, j int) bool {
		if w[i].Session != w[j].Session {
			return w[i].Session < w[j].Session
		}
		return w[i].Seq < w[j].Seq
	})
}
