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
// and the statement as sent, with the template, stamp and read indexes the
// engine returned with its result (RecordOf) — or, built from SQL alone,
// without them: the tuner then resolves the template at ingest, without a
// stamp or a plan. Sessions observe concurrently; sealing orders a window by
// (session, seq), whatever the interleaving, which is what makes a live
// window replayable bit-for-bit offline.
type Record struct {
	Session string
	Seq     uint64
	sess    int32 // the session's ordinal among those the server holds; 0 = none
	// Trace is the client-supplied trace ID ("" for a plain OpQuery): the
	// journal's window events name the live statements by it.
	Trace string
	SQL   string
	Stats exec.Stats

	entry    *engine.Entry // the template-cache entry it ran from (nil: none)
	template string        // normalized text ("" = not resolved yet)
	stamp    uint64
	used     []string // index names the executed plan read
}

// RecordOf is the record of statement sql, which a session executed with
// result res.
func RecordOf(session string, seq uint64, trace, sql string, res *engine.Result) Record {
	return Record{Session: session, Seq: seq, Trace: trace, SQL: sql, Stats: res.Stats, entry: res.Entry, template: res.Template, stamp: res.Stamp, used: res.UsedIndexes}
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

	mu       sync.Mutex
	buf      []Record // grows to maxBuffered, a ring from then on
	head     int      // the ring's oldest slot, which the next statement takes
	sessions int32    // the highest session ordinal buffered
	last     int      // the length of the last window sealed, the next ring's capacity

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
func (c *Collector) Observe(rec Record) []*Record {
	c.mu.Lock()
	for cap(c.buf) == 0 && c.last > 0 { // the first after a seal: allocate, unlocked
		n := c.last
		c.mu.Unlock()
		buf := make([]Record, 0, n)
		c.mu.Lock()
		if cap(c.buf) == 0 {
			c.buf = buf
		}
	}
	c.statements.Inc()
	c.sessions = max(c.sessions, rec.sess)
	if len(c.buf) < c.maxBuffered() {
		c.buf = append(c.buf, rec)
	} else {
		c.buf[c.head] = rec
		c.head = (c.head + 1) % len(c.buf)
		c.dropped.Inc()
	}
	if c.Window > 0 && len(c.buf) >= c.Window {
		return c.sealUnlock()
	}
	c.mu.Unlock()
	return nil
}

// Flush seals and returns everything buffered since the last seal (nil when
// empty).
func (c *Collector) Flush() []*Record {
	c.mu.Lock()
	return c.sealUnlock()
}

// sealUnlock takes the buffer (caller holds c.mu) and orders it unlocked.
func (c *Collector) sealUnlock() []*Record {
	buf, head, sessions := c.buf, c.head, c.sessions
	c.buf, c.head, c.sessions = nil, 0, 0
	if len(buf) > 0 {
		c.sealedN.Inc()
		c.last = len(buf)
	}
	c.mu.Unlock()
	return seal(buf, head, sessions)
}

// Buffered reports the number of unsealed statements.
func (c *Collector) Buffered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// seal returns a taken buffer's records (arrival order starts at head) in
// canonical order, moving none: each session's records form an ascending
// run, and the runs in label order are the canonical order. One pass counts
// the runs by session ordinal (sessions is the highest), the few labels are
// sorted, and a second pass lays the order out. A run that is not ascending
// or not of one label (an ordinal reused or relabelled within the window,
// records built without one), or a label two runs share, falls back to
// SortWindow's order.
func seal(buf []Record, head int, sessions int32) []*Record {
	if len(buf) == 0 {
		return nil
	}
	type run struct {
		label string
		n, at int32
		last  uint64
	}
	runs := make([]run, sessions+1)
	order := make([]*Record, len(buf))
	sorted := true
	for i, slot := 0, head; i < len(buf); i++ {
		rec := &buf[slot]
		r := &runs[rec.sess]
		if r.n == 0 {
			r.label = rec.Session
		} else if rec.Session != r.label {
			sorted = false // one ordinal, two labels
		}
		sorted = sorted && rec.Seq >= r.last
		r.last = rec.Seq
		r.n++
		if slot++; slot == len(buf) {
			slot = 0
		}
	}
	var seen []int32
	for o := range runs {
		if runs[o].n > 0 {
			seen = append(seen, int32(o))
		}
	}
	sort.Slice(seen, func(i, j int) bool { return runs[seen[i]].label < runs[seen[j]].label })
	at := int32(0)
	for i, o := range seen {
		sorted = sorted && (i == 0 || runs[o].label != runs[seen[i-1]].label)
		runs[o].at = at
		at += runs[o].n
	}
	for i, slot := 0, head; i < len(buf); i++ {
		r := &runs[buf[slot].sess]
		order[r.at] = &buf[slot]
		r.at++
		if slot++; slot == len(buf) {
			slot = 0
		}
	}
	if !sorted {
		sort.Slice(order, func(i, j int) bool { return before(order[i], order[j]) })
	}
	return order
}

// SortWindow orders a sealed window canonically: by session label, then by
// the session's own statement sequence. Within one session, seq order is
// the order the client issued statements; across sessions, the label order
// stands in for arrival order so the window is interleaving-independent.
func SortWindow(w []Record) {
	sort.Slice(w, func(i, j int) bool { return before(&w[i], &w[j]) })
}

// before is the canonical order.
func before(a, b *Record) bool {
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	return a.Seq < b.Seq
}
