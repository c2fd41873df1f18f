package server

import (
	"fmt"
	"strings"
	"sync"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
	"aim/internal/sqlparser"
	"aim/internal/tuning"
	"aim/internal/workload"
)

// Tuner feeds sealed collector windows to the shared tuning cycle
// (tuning.Cycle.Run — the same code the fault and scenario suites certify
// offline). What is its own: converting a window into a monitor, journaling
// the window, serializing cycles, rendering the verdict line, and latching
// the fatal state.
type Tuner struct {
	DB       *engine.DB
	Adv      *core.Advisor
	Detector *regression.Detector
	Gate     shadow.Gate
	// Cycle is the tuning cycle this tuner drives; the four fields above are
	// copied into it before every run. Its lock pair (nil = the caller
	// already serializes, offline), policy fields, Stab and OnReport
	// are set on it directly before the first window, and its counters read
	// from it after the last. server.New leaves every policy field zero.
	Cycle tuning.Cycle

	mu sync.Mutex // serializes cycles (background seals vs OpTune)

	Cycles   int
	verdicts []string // the newest maxVerdicts, oldest first
	fatal    error    // latched by fail

	tuneCycles *obs.Counter // server.tune_cycles
}

// CycleWindow folds a sealed (canonically ordered) window into a monitor
// (ingestWindow) and runs one tuning cycle, returning a short rendered
// verdict line. When the serving database has an audit journal attached, the
// window itself is journaled first (one EventWindow record mapping
// normalized queries to live statement IDs) under the cycle lock, so the
// journal's window → candidate → shadow → adopt ordering is deterministic
// and every decision record can be traced back to the statements that drove
// it.
//
// The error path is reserved for invariant violations — a window the
// collector could not have sealed, an ungated adoption — and is a latch: the
// daemon must not adopt past one, so every later call returns the same error
// without touching the database. Operational failures degrade to "no change
// this cycle" inside the cycle.
func (t *Tuner) CycleWindow(w []Record) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fatal != nil {
		return "", t.fatal
	}
	mon, queries, err := ingestWindow(w)
	if err != nil {
		return "", t.fail(err)
	}

	cycle := t.Cycles
	t.Cycles++
	t.tuneCycles.Inc()
	// The cycle's own span: what the window record carries, so the journal's
	// rule — every record names the phase that produced it — has no exception.
	sp := t.DB.ObsRegistry().StartSpan("tuner/cycle")
	defer sp.End()
	if len(queries) > 0 {
		t.DB.AuditJournal().Append(&audit.Record{
			Event:   audit.EventWindow,
			SpanID:  sp.ID(),
			Cycle:   int64(cycle),
			Queries: queries,
		})
	}
	c := &t.Cycle
	c.DB, c.Adv, c.Detector, c.Gate = t.DB, t.Adv, t.Detector, t.Gate
	out, err := c.Run(mon)
	if err != nil {
		return "", t.fail(fmt.Errorf("server: %v", err))
	}

	verdict := "no_candidates"
	if r := out.Report; r != nil {
		verdict = fmt.Sprintf("%s[%s]", r.Verdict(), r.Code)
		if out.ApplyErr != nil {
			verdict += " apply_failed"
		} else if r.Accepted {
			verdict += " adopted=" + strings.Join(out.Adopted, ",")
		}
	}
	if len(out.Reverted) > 0 {
		verdict += " reverted=" + strings.Join(out.Reverted, ",")
	}
	line := fmt.Sprintf("cycle %d: stmts=%d queries=%d %s", cycle, len(w), mon.Len(), verdict)
	t.addVerdict(line)
	return line, nil
}

// ingestWindow folds a sealed window into the cycle's monitor and the
// EventWindow record's queries (first-seen order, the first
// audit.MaxWindowStatements statement IDs each): one pass over the records
// in canonical order, which SampleParams rotation, the float CPUSeconds sum
// and the statement IDs all depend on. What it allocates is per template: a
// session's record arrives with its template and bindings, and only a record
// that carries SQL alone is parsed here.
func ingestWindow(w []Record) (*workload.Monitor, []audit.WindowQuery, error) {
	mon := workload.NewMonitor()
	var queries []audit.WindowQuery
	index := map[*workload.QueryStats]int{} // template -> queries slot
	for i := range w {
		rec := &w[i]
		norm, params := rec.template, rec.params
		if norm == "" {
			// A statement that executed successfully always re-parses; a
			// failure here means the collector was fed garbage.
			stmt, err := sqlparser.Parse(rec.SQL)
			if err != nil {
				return nil, nil, fmt.Errorf("server: window record: %v", err)
			}
			norm, params = sqlparser.Normalize(stmt)
		}
		q, err := mon.Ingest(norm, params, rec.Stats)
		if err != nil {
			return nil, nil, fmt.Errorf("server: window record: %v", err)
		}
		slot, ok := index[q]
		if !ok {
			slot = len(queries)
			index[q] = slot
			queries = append(queries, audit.WindowQuery{Query: q.Normalized})
		}
		wq := &queries[slot]
		wq.Count++
		if len(wq.Statements) < audit.MaxWindowStatements {
			id := rec.Trace
			if id == "" {
				id = fmt.Sprintf("%s#%d", rec.Session, rec.Seq)
			}
			wq.Statements = append(wq.Statements, id)
		}
	}
	return mon, queries, nil
}

// maxVerdicts bounds the lines a tuner keeps: a daemon cycles while it lives.
const maxVerdicts = 1024

// addVerdict appends line (caller holds t.mu), dropping the oldest beyond
// maxVerdicts. A FATAL line is the last ever added, so never the oldest.
func (t *Tuner) addVerdict(line string) {
	if len(t.verdicts) == maxVerdicts {
		t.verdicts = append(t.verdicts[:0], t.verdicts[1:]...)
	}
	t.verdicts = append(t.verdicts, line)
}

// fail latches the fatal state (caller holds t.mu): err is recorded as a
// "FATAL" verdict line and returned by this and every later CycleWindow.
func (t *Tuner) fail(err error) error {
	t.fatal = err
	t.addVerdict("FATAL " + err.Error())
	return err
}

// Verdicts returns the newest maxVerdicts per-cycle verdict lines, oldest first.
func (t *Tuner) Verdicts() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.verdicts...)
}
