package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
	"aim/internal/sqlparser"
	"aim/internal/workload"
)

// Tuner is the one tuning cycle every driver runs: the live daemon (sealed
// collector windows through CycleWindow), the offline loop behind the fault,
// scenario and serve suites (experiments.Loop, the same CycleWindow), and
// in-process callers with a monitor of their own (Run). It is the only place
// that knows the order of the no-regression contract (§VII-B/C): nothing
// changes the physical design without a shadow-gate verdict or a journaled
// revert reason, and what regresses is reverted.
//
// DB, Adv, Detector and Gate are required. The zero values of the policy
// fields are the default cycle — creations only, per-query regression
// detection only — and what server.New runs.
type Tuner struct {
	DB       *engine.DB
	Adv      *core.Advisor
	Detector *regression.Detector
	Gate     shadow.Gate

	// Read and Write are the two sides of the serving statement gate: phases
	// that read statistics hold Read (they must not race live DML), phases
	// that change the physical design hold Write. Nil means the caller
	// already serializes (offline). Shadow validation holds neither: its one
	// snapshot serializes through the engine's clone gate, as do the
	// adoption's catch-up rounds. Adoption holds Write only to diff the last
	// round's writes and attach, never to build.
	Read, Write sync.Locker

	// MaintenanceGuard additionally runs the detector's write-amplification
	// economics check each cycle (ObserveMaintenance).
	MaintenanceGuard bool
	// ApplyDrops retires automation indexes the advisor reports unused for
	// DropAfterUnused consecutive windows (<= 0 selects 3), journaled as
	// "unused_index" reverts. Off, unused indexes are only ever removed by
	// regressions.
	ApplyDrops      bool
	DropAfterUnused int

	// OnCycle, when set, receives the outcome of every cycle that reached
	// run, a cycle that latched the fatal state included. It runs under the
	// cycle lock, so it sees cycles in order and must not call back into the
	// tuner.
	OnCycle func(Outcome)

	// Outcome counters, aggregated over every cycle.
	Cycles              int
	Adoptions           int
	ApplyFailures       int
	DegradedValidations int
	Reverted            int

	mu           sync.Mutex // serializes cycles (background seals vs OpTune)
	unusedStreak map[string]int
	verdicts     []string // the newest maxVerdicts, oldest first
	fatal        error    // latched by fail

	tuneCycles *obs.Counter // server.tune_cycles
}

// Outcome is what one cycle did.
type Outcome struct {
	// Cycle is the tuner's 0-based cycle index.
	Cycle int
	// Rec is the advisor's recommendation (nil when the advisor failed).
	Rec *core.Recommendation
	// Report is the shadow verdict; nil when no candidate reached the gate.
	Report *shadow.Report
	// Adopted are the catalog keys of the validated creations applied.
	Adopted []string
	// ApplyErr is set when an accepted batch failed to apply: the catch-up
	// was outpaced or the handoff rolled it back, the catalog is unchanged
	// and a later cycle re-validates.
	ApplyErr error
	// Reverted are the catalog keys dropped this cycle, retirements first.
	Reverted []string
}

// validate is the shadow gate the cycle consults; a variable so a test can
// stand in a broken one and drive the fatal path.
var validate = shadow.Validate

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
	// The cycle's own span: what the window record carries, so the journal's
	// rule — every record names the phase that produced it — has no exception.
	sp := t.DB.ObsRegistry().StartSpan("tuner/cycle")
	defer sp.End()
	if len(queries) > 0 {
		t.DB.AuditJournal().Append(&audit.Record{
			Event:   audit.EventWindow,
			SpanID:  sp.ID(),
			Cycle:   int64(t.Cycles),
			Queries: queries,
		})
	}
	out, err := t.run(mon)
	if err != nil {
		return "", err
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
	line := fmt.Sprintf("cycle %d: stmts=%d queries=%d %s", out.Cycle, len(w), mon.Len(), verdict)
	t.addVerdict(line)
	return line, nil
}

// Run is one tuning cycle over an observed window, for in-process callers
// that hold their own monitor: no window record, no verdict line, the same
// lock, latch and OnCycle as CycleWindow.
func (t *Tuner) Run(mon *workload.Monitor) (Outcome, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fatal != nil {
		return Outcome{}, t.fatal
	}
	return t.run(mon)
}

// hold runs f holding l (nil: nothing to hold).
func hold(l sync.Locker, f func()) {
	if l != nil {
		l.Lock()
		defer l.Unlock()
	}
	f()
}

// run drives one cycle (caller holds t.mu): recommend, gate the creations
// through shadow validation and apply only on acceptance (adopt), retire
// unused indexes, then let the regression detector revert what it flags.
// Every failure path degrades to "no change this cycle"; the error return is
// reserved for invariant violations and latches the fatal state — an
// accepted-but-degraded verdict is the one that matters, because it would be
// an ungated adoption.
func (t *Tuner) run(mon *workload.Monitor) (out Outcome, err error) {
	out.Cycle = t.Cycles
	t.Cycles++
	t.tuneCycles.Inc()
	defer func() {
		if err != nil {
			err = t.fail(fmt.Errorf("server: %v", err))
		}
		if t.OnCycle != nil {
			t.OnCycle(out)
		}
	}()
	hold(t.Read, func() { out.Rec, err = t.Adv.Recommend(mon) })
	if err != nil {
		return out, fmt.Errorf("recommend: %v", err)
	}
	if err := t.adopt(&out, mon); err != nil {
		return out, err
	}
	// Unused-index drops go through their own retirement path, never through
	// Apply: nothing changes the physical design without either a gate
	// verdict or a journaled revert reason.
	if t.ApplyDrops {
		t.revert(&out, t.retirements(out.Rec.Drop))
	}
	var regs []*regression.Regression
	hold(t.Read, func() {
		regs = t.Detector.Observe(t.DB, mon)
		if t.MaintenanceGuard {
			regs = append(regs, t.Detector.ObserveMaintenance(t.DB, mon)...)
		}
	})
	t.revert(&out, regs)
	return out, nil
}

// adopt is the forward half of the cycle: drop candidates inside their
// revert cooldown, validate the rest on shadow snapshots, and when the gate
// accepts adopt exactly the validated creations — the trees it measured,
// caught up to the live tables in rounds outside the write gate
// (engine.CatchUp), then handed over under it. Writers that outpace the
// rounds fail the adoption like any failed handoff.
func (t *Tuner) adopt(out *Outcome, mon *workload.Monitor) error {
	// An index the loop just reverted must wait its cooldown out, or a
	// borderline workload flips it adopt/revert forever.
	kept := make([]*catalog.Index, 0, len(out.Rec.Create))
	for _, ix := range out.Rec.Create {
		if !t.Detector.InCooldown(ix.Key()) {
			kept = append(kept, ix)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	report, err := validate(t.DB, kept, mon, t.Gate)
	if err != nil {
		return fmt.Errorf("validate: %v", err)
	}
	defer report.Release()
	out.Report = report
	if report.Accepted && report.Degraded {
		return fmt.Errorf("degraded verdict accepted: %s", report.Reason)
	}
	if report.Degraded {
		t.DegradedValidations++
	}
	if !report.Accepted {
		return nil
	}
	caught, err := t.DB.CatchUp(report.Built(), kept)
	if err == nil {
		defer caught.Release()
		hold(t.Write, func() { _, err = t.Adv.Adopt(kept, caught) })
	}
	if out.ApplyErr = err; err != nil {
		t.ApplyFailures++
		return nil
	}
	t.Adoptions++
	for _, ix := range kept {
		out.Adopted = append(out.Adopted, ix.Key())
	}
	return nil
}

// revert drops the suspects of regs through the detector's revert path
// (idempotent drop, journal record, cooldown registration) and accounts the
// dropped keys.
func (t *Tuner) revert(out *Outcome, regs []*regression.Regression) {
	if len(regs) == 0 {
		return
	}
	var keys []string
	hold(t.Write, func() { keys = t.Detector.Revert(t.DB, regs) })
	t.Reverted += len(keys)
	out.Reverted = append(out.Reverted, keys...)
}

// retirements ages automation indexes through the advisor's unused-drop
// proposals and returns an "unused_index" regression for each one reported
// unused for DropAfterUnused consecutive windows, in key order. One busy
// window resets an index's streak.
func (t *Tuner) retirements(drop []*catalog.Index) []*regression.Regression {
	if t.unusedStreak == nil {
		t.unusedStreak = map[string]int{}
	}
	after := t.DropAfterUnused
	if after <= 0 {
		after = 3
	}
	unused := map[string]*catalog.Index{}
	keys := make([]string, 0, len(drop))
	for _, ix := range drop {
		if ix.Hypothetical || ix.CreatedBy == "" || ix.CreatedBy == "dba" {
			continue
		}
		if unused[ix.Key()] == nil {
			keys = append(keys, ix.Key())
		}
		unused[ix.Key()] = ix
	}
	for k := range t.unusedStreak {
		if unused[k] == nil {
			delete(t.unusedStreak, k)
		}
	}
	sort.Strings(keys)
	var regs []*regression.Regression
	for _, k := range keys {
		t.unusedStreak[k]++
		if t.unusedStreak[k] < after {
			continue
		}
		delete(t.unusedStreak, k)
		regs = append(regs, &regression.Regression{
			ReasonCode:     "unused_index",
			SuspectIndexes: []*catalog.Index{unused[k]},
		})
	}
	return regs
}

// ingestWindow folds a sealed window into the cycle's monitor and the
// EventWindow record's queries (first-seen order, the first
// audit.MaxWindowStatements statement IDs each): one pass over the records
// in canonical order, which the sample rotation, the float CPUSeconds sum
// and the statement IDs all depend on. What it allocates is per template: a
// session's record arrives with its template, and only a record that
// carries SQL alone is parsed here.
func ingestWindow(w []Record) (*workload.Monitor, []audit.WindowQuery, error) {
	mon := workload.NewMonitor()
	var queries []audit.WindowQuery
	index := map[*workload.QueryStats]int{} // template -> queries slot
	for i := range w {
		rec := &w[i]
		norm := rec.template
		if norm == "" {
			// A statement that executed successfully always re-parses; a
			// failure here means the collector was fed garbage.
			stmt, err := sqlparser.Parse(rec.SQL)
			if err != nil {
				return nil, nil, fmt.Errorf("server: window record: %v", err)
			}
			norm, _ = sqlparser.Normalize(stmt)
		}
		q, err := mon.IngestStamped(norm, rec.SQL, rec.Stats, rec.stamp)
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
// "FATAL" verdict line and returned by this and every later cycle.
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
