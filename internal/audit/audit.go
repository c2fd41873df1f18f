// Package audit is the advisor's decision journal: an append-only JSON-lines
// log that records one causally-linked record per advisor event — a
// candidate generated from query structure, its ranking and knapsack verdict
// with the budget state, the shadow-validation verdict with its typed reason
// code, the adoption, and any later regression-driven revert. The paper's
// operational pitch (§VI-D, the no-regression guarantee) is that operators
// can trust automated index changes; this journal is what makes every change
// *auditable* after the fact: `aimctl explain <index>` reconstructs the full
// why-lineage of any index (or why a candidate was rejected) from the
// journal alone.
//
// Design rules:
//
//   - Nil is off. Every method is safe on a nil *Journal and the disabled
//     path costs one nil check — mirroring internal/obs, components hold a
//     journal handle unconditionally.
//   - Records never influence behaviour; they describe decisions already
//     taken.
//   - Writes are deterministic modulo the ts_us field: for a fixed seed and
//     workload, two runs produce byte-identical journals once timestamps are
//     stripped, so golden tests can pin them.
//   - Every record carries the obs span ID of the phase that produced it
//     (0 when observability is off), joinable against the -trace-out file.
package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event discriminates journal record types.
type Event string

// The advisor event types, in causal order.
const (
	// EventCandidate: a candidate index was generated from query structure.
	EventCandidate Event = "candidate"
	// EventRank: the candidate was ranked (gain, maintenance discount) and
	// the knapsack decided to keep or cut it under the budget.
	EventRank Event = "rank"
	// EventShadow: a shadow validation produced a verdict covering the index.
	EventShadow Event = "shadow"
	// EventAdopt: the index was materialized on production.
	EventAdopt Event = "adopt"
	// EventRevert: the regression detector flagged the index and it was
	// dropped.
	EventRevert Event = "revert"
	// EventWindow: one sealed live-traffic window entered a tuning cycle.
	// The record maps each normalized query in the window to the concrete
	// statement IDs (wire trace IDs, or session#seq) that produced it — the
	// bridge that lets Explain resolve a later adoption back to the exact
	// live statements that drove it. An offline run of the same window writes
	// a byte-identical window record.
	EventWindow Event = "window"
)

// WindowQuery is one normalized query inside an EventWindow record: the
// query, how many statements in the window executed it, and up to
// MaxWindowStatements concrete statement IDs in canonical window order.
type WindowQuery struct {
	Query string `json:"query"`
	Count int64  `json:"count"`
	// Statements holds trace IDs when the client supplied them, otherwise
	// "session#seq". Capped at MaxWindowStatements per query; Count carries
	// the true total.
	Statements []string `json:"statements,omitempty"`
}

// MaxWindowStatements caps the statement IDs journaled per window query, so
// a hot query repeated thousands of times per window costs a bounded line.
const MaxWindowStatements = 16

// Record is one journal line. Fields are event-specific; irrelevant ones
// stay zero and are omitted from the encoding. IndexKey is the canonical
// identity (catalog.Index.Key(): "table(col1,col2)") that links records of
// one index across events; Index is the catalog name when known.
type Record struct {
	Seq   int64 `json:"seq"`
	TSUS  int64 `json:"ts_us,omitempty"` // wall-clock unix microseconds
	Event Event `json:"event"`
	// SpanID is the obs span of the phase that produced this record
	// (advisor/generate for candidates, advisor/knapsack for rank records,
	// shadow/validate for verdicts, advisor/apply and regression/revert for
	// adoptions and reverts). 0 when no registry is attached.
	SpanID   uint64 `json:"span_id,omitempty"`
	IndexKey string `json:"index_key,omitempty"`
	Index    string `json:"index,omitempty"`
	Table    string `json:"table,omitempty"`

	// EventCandidate.
	PartialOrder string   `json:"partial_order,omitempty"`
	Sources      []string `json:"sources,omitempty"` // normalized source queries

	// EventRank.
	GainCPU        float64 `json:"gain_cpu,omitempty"`        // Eq. 7 share, CPU s/window
	MaintenanceCPU float64 `json:"maintenance_cpu,omitempty"` // Eq. 8 discount
	SizeBytes      int64   `json:"size_bytes,omitempty"`
	Selected       *bool   `json:"selected,omitempty"`
	// Decision is the knapsack outcome: "selected", "nonpositive_utility",
	// "duplicate_existing", "over_budget" or "prefix_redundant".
	Decision string `json:"decision,omitempty"`
	// BudgetBytes is the configured budget (0 = unlimited) and
	// BudgetUsedBytes the budget consumed when this decision was made.
	BudgetBytes     int64 `json:"budget_bytes,omitempty"`
	BudgetUsedBytes int64 `json:"budget_used_bytes,omitempty"`

	// EventShadow.
	Verdict    string `json:"verdict,omitempty"` // accepted|rejected|degraded
	ReasonCode string `json:"reason_code,omitempty"`
	Reason     string `json:"reason,omitempty"`
	Replays    int64  `json:"replays,omitempty"`
	// QueriesCompared/QueriesUnreplayable summarize the replay evidence
	// behind the verdict.
	QueriesCompared     int `json:"queries_compared,omitempty"`
	QueriesUnreplayable int `json:"queries_unreplayable,omitempty"`

	// EventRevert.
	Query     string  `json:"query,omitempty"` // regressed normalized query
	BeforeCPU float64 `json:"before_cpu,omitempty"`
	AfterCPU  float64 `json:"after_cpu,omitempty"`

	// EventWindow. Cycle is the 0-based tuning-cycle ordinal (omitted when
	// 0); Queries maps the window's normalized queries to live statement IDs.
	Cycle   int64         `json:"cycle,omitempty"`
	Queries []WindowQuery `json:"window_queries,omitempty"`
}

// Journal appends records to a writer, one JSON line each. Safe for
// concurrent use; nil is the disabled state.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
	seq int64
	// now stamps ts_us; replaced in tests that need fully deterministic
	// bytes.
	now func() int64
	// closer is set when the journal owns the underlying file.
	closer io.Closer
	// err remembers the first write failure for Close/Err.
	err error
}

// New returns a journal appending to w.
func New(w io.Writer) *Journal {
	return &Journal{w: w, enc: json.NewEncoder(w), now: func() int64 { return time.Now().UnixMicro() }}
}

// Create opens (truncating) a journal file at path. Close releases it.
func Create(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("audit: %v", err)
	}
	bw := bufio.NewWriter(f)
	j := New(bw)
	j.closer = &flushCloser{bw: bw, f: f}
	return j, nil
}

type flushCloser struct {
	bw *bufio.Writer
	f  *os.File
}

func (fc *flushCloser) Close() error {
	if err := fc.bw.Flush(); err != nil {
		fc.f.Close()
		return err
	}
	return fc.f.Close()
}

// SetClock replaces the timestamp source (tests use a fixed clock to pin
// journal bytes exactly). No-op on nil.
func (j *Journal) SetClock(now func() int64) {
	if j == nil || now == nil {
		return
	}
	j.mu.Lock()
	j.now = now
	j.mu.Unlock()
}

// Append assigns the record's sequence number and timestamp and writes it as
// one JSON line. No-op on a nil journal. Write errors are remembered and
// surfaced by Close/Err rather than returned per record: journaling must
// never turn an advisor decision into a failure.
func (j *Journal) Append(r *Record) {
	if j == nil || r == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	r.Seq = j.seq
	r.TSUS = j.now()
	if err := j.enc.Encode(r); err != nil && j.err == nil {
		j.err = err
	}
}

// Seq returns the number of records appended so far (0 on nil).
func (j *Journal) Seq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Err returns the first write error encountered (nil on nil journal).
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and closes the underlying file when the journal owns one
// (Create); otherwise it only reports any deferred write error.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closer != nil {
		if err := j.closer.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.closer = nil
	}
	return j.err
}

// ReadRecords parses a journal stream back into records, tolerating a
// truncated final line (a crashed writer must not make the whole journal
// unreadable).
func ReadRecords(r io.Reader) ([]*Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []*Record
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		rec := &Record{}
		if err := json.Unmarshal(b, rec); err != nil {
			if !sc.Scan() { // truncated tail: keep what parsed
				return out, nil
			}
			return out, fmt.Errorf("audit: line %d: %v", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("audit: %v", err)
	}
	return out, nil
}

// ReadFile reads a journal file.
func ReadFile(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("audit: %v", err)
	}
	defer f.Close()
	return ReadRecords(f)
}
