package obs

import (
	"fmt"
	"io"
	"time"
)

// Span is one timed phase of the pipeline. Spans nest: Child spans extend
// the parent's slash-separated name (advisor → advisor/rank →
// advisor/rank/gains), so the registry's span histograms form the phase
// hierarchy directly and the JSON trace can be folded into a flame graph.
//
// A nil *Span (from a nil registry) is the disabled state: Child returns
// nil and End is a no-op, so instrumented code never branches on "is
// tracing on" — it just calls through.
type Span struct {
	reg    *Registry
	name   string
	id     uint64
	parent uint64
	start  time.Time
	attrs  []spanAttr
}

// spanAttr is one key/value annotation carried on the span's trace line.
type spanAttr struct {
	key, val string
}

// StartSpan opens a root span. Returns nil on a nil registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, name: name, id: r.spanSeq.Add(1), start: time.Now()}
}

// ID returns the span's registry-unique identifier (0 on nil). The audit
// journal stores it on every decision record so a journal line can be joined
// against the JSON trace (-trace-out) of the phase that produced it.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Child opens a nested span under s. Returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		reg:    s.reg,
		name:   s.name + "/" + name,
		id:     s.reg.spanSeq.Add(1),
		parent: s.id,
		start:  time.Now(),
	}
}

// Annotate attaches a key/value pair to the span's trace line — the flight
// recorder uses it to stamp per-statement spans with (session, seq, trace)
// so a journal or slow-log entry can be joined back to the exact span.
// Annotations are emit-only: they never affect the span histogram. Returns
// the span for chaining; no-op on nil.
func (s *Span) Annotate(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, spanAttr{key: key, val: value})
	return s
}

// End closes the span: its duration lands in the registry's span histogram
// for the name, and — when a trace writer is attached — one JSON line is
// emitted for offline flame-graph analysis. No-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.reg.spanHist(s.name).Observe(d.Seconds())
	s.reg.emitTrace(s, d)
}

// SetTraceWriter attaches a JSON-lines trace sink (the -trace-out file).
// Pass nil to detach. Span names are code-controlled identifiers
// ([a-z0-9_./-]), so lines are built with Fprintf rather than a JSON
// encoder; unexpected characters are escaped defensively. No-op on a nil
// registry.
func (r *Registry) SetTraceWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.traceMu.Lock()
	r.trace = w
	r.traceMu.Unlock()
}

// emitTrace writes one span record: name, ids, start (unix microseconds)
// and duration (microseconds).
func (r *Registry) emitTrace(s *Span, d time.Duration) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if r.trace == nil {
		return
	}
	// The line is built up front and handed to the sink in one Write, so a
	// span never arrives split across writes.
	line := fmt.Appendf(nil, `{"name":%q,"id":%d,"parent":%d,"start_us":%d,"dur_us":%.1f`,
		s.name, s.id, s.parent, s.start.UnixMicro(), float64(d.Nanoseconds())/1e3)
	for _, a := range s.attrs {
		line = fmt.Appendf(line, `,%q:%q`, a.key, a.val)
	}
	line = append(line, '}', '\n')
	r.trace.Write(line)
}
