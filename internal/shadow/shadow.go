// Package shadow is the MyShadow analogue (§VII-B): it materializes a
// recommendation on a logical clone of the database, replays the observed
// workload against both the old and new configuration, and enforces the
// continuous-tuning guarantees of Eq. 2-4 — overall improvement, at least
// one query improved by λ₂, and no query regressed by more than λ₃ — before
// anything touches production.
//
// Failure semantics: validation is the loop's safety gate, so it must fail
// *closed*. Clone builds and replays are retried with bounded backoff
// (failpoint.Policy); when a phase keeps failing — or any query stays
// unreplayable — the verdict is Degraded: not accepted, nothing applied,
// production untouched. A fault can delay an adoption, never cause an
// unvalidated one.
package shadow

import (
	"errors"
	"fmt"
	"time"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/workload"
)

// Gate holds the λ parameters of the continuous index tuning problem
// (§II-B). All are fractions in [0, 1).
type Gate struct {
	// Lambda1 bounds overall cost increase versus the candidate config.
	Lambda1 float64
	// Lambda2 is the minimum relative improvement required for at least
	// one query (Eq. 3).
	Lambda2 float64
	// Lambda3 is the maximum tolerated per-query regression (Eq. 4).
	Lambda3 float64
	// MinRegressCPU is an absolute noise floor under the λ₃ check: a query
	// whose per-execution CPU grew by less than this many seconds is not
	// counted as regressed even when the relative change exceeds λ₃. Cheap
	// statements (a single-row INSERT costs a few microseconds) otherwise
	// veto every first index on their table, because fixed per-index
	// maintenance is huge *relative* to their cost while being irrelevant in
	// absolute terms. 0 disables the floor (pure-λ₃ semantics).
	MinRegressCPU float64
	// MaxReplays caps how many parameter samples are replayed per query
	// (0 = replay every sample). Fewer samples may be available; the actual
	// count lands in QueryOutcome.Replays.
	MaxReplays int
}

// DefaultGate uses mild thresholds suitable for the synthetic workloads.
func DefaultGate() Gate {
	return Gate{Lambda1: 0.1, Lambda2: 0.05, Lambda3: 0.25, MinRegressCPU: 50e-6, MaxReplays: 3}
}

// Retry policies for the two fallible phases. Package variables so the
// fault tests can tighten them; production code treats them as constants.
var (
	// clonePolicy guards clone-pair construction (clone + candidate
	// materialization), retried as a unit: a half-built pair is discarded,
	// never patched.
	clonePolicy = failpoint.DefaultPolicy()
	// replayPolicy guards one query's replay. Divergence aborts the retry
	// loop immediately (the clones must be rebuilt, retrying cannot help).
	replayPolicy = failpoint.Policy{Attempts: 2, Base: 500 * time.Microsecond, Max: 2 * time.Millisecond, Deadline: 100 * time.Millisecond}
)

// QueryOutcome is the before/after comparison for one normalized query.
type QueryOutcome struct {
	Normalized string
	Executions int64 // weight used for the overall aggregate
	// Replays is how many parameter samples were actually replayed on each
	// clone (bounded by Gate.MaxReplays).
	Replays   int
	BeforeCPU float64
	AfterCPU  float64
}

// Change returns the relative CPU delta (negative = improvement).
func (o *QueryOutcome) Change() float64 {
	if o.BeforeCPU == 0 {
		return 0
	}
	return (o.AfterCPU - o.BeforeCPU) / o.BeforeCPU
}

// Report is the verdict of one validation run.
type Report struct {
	Accepted bool
	// Code is the typed, machine-readable classification of the verdict;
	// Reason is the human-facing sentence carrying the specifics (which
	// query, by how much). Both are always set — accepted and rejected
	// verdicts alike.
	Code   ReasonCode
	Reason string
	// Degraded marks a verdict produced under failure rather than by the
	// gate: the clone environment could not be built, one or more queries
	// stayed unreplayable after retries, or the validation panicked. A
	// degraded verdict is never Accepted — the loop's answer to a fault is
	// "no change", not an unvalidated adoption.
	Degraded  bool
	Outcomes  []QueryOutcome
	TotalGain float64 // weighted CPU seconds saved per window
	// Divergent lists normalized queries whose DML replay succeeded on one
	// clone but failed on the other. Their comparison was aborted and the
	// clones rebuilt; the gate verdict excludes them.
	Divergent []string
	// ReplayErrors lists normalized queries that could not be replayed at
	// all after retries (clone errors, unbindable samples). Any entry here
	// degrades the verdict: a gate decided on partial evidence could let a
	// regression through on exactly the queries it failed to see.
	ReplayErrors []string
	// AcceptedIndexes are the indexes that survive validation (currently
	// all-or-nothing, like the paper's per-database gate).
	AcceptedIndexes []*catalog.Index
}

// errDiverged signals a one-sided DML replay failure: one clone applied the
// write and the other did not, so every subsequent replay would compare
// different data. The caller must discard both clones.
var errDiverged = errors.New("shadow: clones diverged on one-sided DML error")

// release retires snapshot handles (the storage.snapshots_live gauge).
func release(dbs ...*engine.DB) {
	for _, d := range dbs {
		if d != nil {
			d.Release()
		}
	}
}

// clonePair builds a fresh baseline/test pair from production as O(1)
// copy-on-write snapshots, with the candidates materialized on the test
// side in one batch (the per-index builds fan out over the storage worker
// pool); both sides keep the statistics production held, so the candidates
// are the only difference between them. Rebuilding restores comparability
// after a divergence (the engine has no transactions to roll back a
// half-applied replay). The whole pair is built or none of it: a snapshot
// or materialization failure discards both sides, and clonePolicy retries
// from scratch with backoff.
func clonePair(db *engine.DB, candidates []*catalog.Index) (baseline, test *engine.DB, err error) {
	reg := db.ObsRegistry()
	err = clonePolicy.Do(func() error {
		release(baseline, test)
		baseline, test = nil, nil
		if err := failpoint.Inject("shadow.clone"); err != nil {
			return err
		}
		var err error
		if baseline, err = db.CloneChecked("shadow-baseline"); err != nil {
			return err
		}
		if test, err = db.CloneChecked("shadow-test"); err != nil {
			return err
		}
		defs := make([]*catalog.Index, len(candidates))
		for i, ix := range candidates {
			defs[i] = ix.Materialized()
		}
		if _, err := test.CreateIndexes(defs); err != nil {
			return fmt.Errorf("shadow: materializing candidates: %v", err)
		}
		return nil
	})
	if err != nil {
		reg.Counter("shadow.clone_failures").Inc()
		return nil, nil, err
	}
	reg.Counter("shadow.clone_pairs").Inc()
	return baseline, test, nil
}

// Validate clones the database, materializes the candidate indexes on the
// clone, replays the workload on both configurations, and applies the gate.
// Runtime failures (clone build dying, replays erroring, panics below the
// validator) produce a Degraded non-accepting report, not an error: the
// returned error is reserved for misuse by the caller.
func Validate(db *engine.DB, candidates []*catalog.Index, mon *workload.Monitor, gate Gate) (rep *Report, err error) {
	reg := db.ObsRegistry()
	reg.Counter("shadow.validations").Inc()
	span := reg.StartSpan("shadow/validate")
	defer span.End()
	verdict := func(rep *Report) (*Report, error) {
		if rep.Accepted {
			reg.Counter("shadow.accepted").Inc()
		} else {
			reg.Counter("shadow.rejected").Inc()
		}
		if rep.Degraded {
			reg.Counter("shadow.degraded").Inc()
			failpoint.CountDegraded()
		}
		journalVerdict(db, span, candidates, mon, rep)
		return rep, nil
	}
	// Everything below runs on clones; production state is untouched until
	// the caller applies an accepted recommendation. A panic mid-validation
	// (e.g. an injected panic action in a clone build) therefore degrades
	// to "no change" instead of taking the tuning loop down.
	defer func() {
		if p := recover(); p != nil {
			rep, err = verdict(&Report{
				Degraded: true,
				Code:     CodePanicked,
				Reason:   fmt.Sprintf("validation panicked: %v", p),
			})
		}
	}()
	if len(candidates) == 0 {
		return verdict(&Report{Accepted: false, Code: CodeNoCandidates, Reason: "no candidate indexes"})
	}

	baseline, test, err := clonePair(db, candidates)
	if err != nil {
		return verdict(&Report{
			Degraded: true,
			Code:     CodeCloneUnavailable,
			Reason:   fmt.Sprintf("clone environment unavailable: %v", err),
		})
	}
	defer func() { release(baseline, test) }()

	rep = &Report{}
	improvedOne := false
	var totalBefore, totalAfter float64
	for _, q := range mon.Queries() {
		var before, after float64
		var replays int
		rerr := replayPolicy.Do(func() error {
			var e error
			before, after, replays, e = replayQuery(baseline, test, q, gate.MaxReplays)
			reg.Counter("shadow.replays").Add(int64(replays))
			if errors.Is(e, errDiverged) {
				return failpoint.Abort(e)
			}
			return e
		})
		if rerr != nil {
			if errors.Is(rerr, errDiverged) {
				rep.Divergent = append(rep.Divergent, q.Normalized)
				reg.Counter("shadow.divergent").Inc()
				release(baseline, test)
				if baseline, test, err = clonePair(db, candidates); err != nil {
					rep.Degraded = true
					rep.Code = CodeCloneRebuildFailed
					rep.Reason = fmt.Sprintf("clone rebuild after divergence failed: %v", err)
					return verdict(rep)
				}
				continue
			}
			// A query that stays unreplayable after retries degrades the
			// verdict below: the gate must not pass on evidence that is
			// silently missing exactly this query.
			rep.ReplayErrors = append(rep.ReplayErrors, q.Normalized)
			reg.Counter("shadow.replay_errors").Inc()
			continue
		}
		out := QueryOutcome{
			Normalized: q.Normalized,
			Executions: q.Executions,
			Replays:    replays,
			BeforeCPU:  before,
			AfterCPU:   after,
		}
		rep.Outcomes = append(rep.Outcomes, out)
		reg.Counter("shadow.replayed_queries").Inc()
		w := float64(q.Executions)
		totalBefore += before * w
		totalAfter += after * w
		if before > 0 && (before-after)/before >= gate.Lambda2 {
			improvedOne = true
		}
	}
	rep.TotalGain = totalBefore - totalAfter

	// Fail closed on partial evidence: any unreplayable query (or an empty
	// comparison with a non-empty workload) yields a Degraded rejection
	// before the gate equations run.
	if len(rep.ReplayErrors) > 0 || (len(rep.Outcomes) == 0 && mon.Len() > 0) {
		rep.Degraded = true
		rep.Code = CodeUnreplayable
		rep.Reason = fmt.Sprintf("validation degraded: %d of %d queries unreplayable",
			len(rep.ReplayErrors), mon.Len())
		return verdict(rep)
	}

	// Eq. 4: no individual regression beyond λ₃ (ignoring absolute deltas
	// under the MinRegressCPU noise floor).
	for _, out := range rep.Outcomes {
		if out.BeforeCPU > 0 && out.Change() > gate.Lambda3 &&
			out.AfterCPU-out.BeforeCPU >= gate.MinRegressCPU {
			rep.Code = CodeQueryRegressed
			rep.Reason = fmt.Sprintf("query regressed %.1f%% > λ₃: %s", out.Change()*100, out.Normalized)
			return verdict(rep)
		}
	}
	// Eq. 3: at least one query improved by λ₂.
	if !improvedOne {
		rep.Code = CodeNoQueryImproved
		rep.Reason = "no query improved by λ₂"
		return verdict(rep)
	}
	// Eq. 2 (approximated): the overall cost must not increase by more
	// than λ₁ relative to the candidate configuration's promise.
	if totalBefore > 0 && totalAfter > totalBefore*(1+gate.Lambda1) {
		rep.Code = CodeOverallRegressed
		rep.Reason = "overall cost regressed beyond λ₁"
		return verdict(rep)
	}
	rep.Accepted = true
	rep.Code = CodeAccepted
	// Accepted verdicts carry the evidence, not just the word: how many
	// queries were compared and what the gate measured.
	rep.Reason = fmt.Sprintf("accepted: %d queries compared, gain %.4fs cpu/window", len(rep.Outcomes), rep.TotalGain)
	rep.AcceptedIndexes = candidates
	return verdict(rep)
}

// journalVerdict writes one shadow record per candidate index to the
// database's audit journal (no-op when none is attached), each carrying the
// validation span so the journal joins against the trace.
func journalVerdict(db *engine.DB, span *obs.Span, candidates []*catalog.Index, mon *workload.Monitor, rep *Report) {
	j := db.AuditJournal()
	if j == nil {
		return
	}
	var replays int64
	for _, o := range rep.Outcomes {
		replays += int64(o.Replays)
	}
	for _, ix := range candidates {
		j.Append(&audit.Record{
			Event:               audit.EventShadow,
			SpanID:              span.ID(),
			IndexKey:            ix.Key(),
			Index:               ix.Name,
			Table:               ix.Table,
			Verdict:             rep.Verdict(),
			ReasonCode:          string(rep.Code),
			Reason:              rep.Reason,
			Replays:             replays,
			QueriesCompared:     len(rep.Outcomes),
			QueriesDiverged:     len(rep.Divergent),
			QueriesUnreplayable: len(rep.ReplayErrors),
		})
	}
}

// replayQuery executes the query's sampled parameterizations on both clones
// and returns average CPU seconds per execution for each, plus the number of
// samples replayed. A one-sided DML failure returns errDiverged: the write
// landed on one clone only, so the pair is no longer comparable and the
// caller must rebuild both clones. The "replay.query" failpoint fires before
// any sample executes, so an injected replay failure is retryable without
// re-applying DML.
func replayQuery(baseline, test *engine.DB, q *workload.QueryStats, maxReplays int) (before, after float64, replays int, err error) {
	if err := failpoint.Inject("replay.query"); err != nil {
		return 0, 0, 0, err
	}
	params := q.SampleParams
	if len(params) == 0 {
		params = [][]sqltypes.Value{nil}
	}
	if maxReplays > 0 && len(params) > maxReplays {
		params = params[:maxReplays]
	}
	for _, p := range params {
		stmt, err := sqlparser.Bind(q.Stmt, p)
		if err != nil {
			continue
		}
		// DML must not change clone contents between replays in a way that
		// breaks comparability; replay on both sides keeps them in step.
		resB, errB := baseline.ExecStmt(stmt)
		resT, errT := test.ExecStmt(stmt)
		if errB != nil || errT != nil {
			if _, isSelect := stmt.(*sqlparser.Select); !isSelect && (errB == nil) != (errT == nil) {
				// The statement mutated exactly one clone.
				return 0, 0, replays, errDiverged
			}
			continue
		}
		before += resB.Stats.CPUSeconds()
		after += resT.Stats.CPUSeconds()
		replays++
	}
	if replays == 0 {
		return 0, 0, 0, fmt.Errorf("shadow: no replayable samples for %s", q.Normalized)
	}
	return before / float64(replays), after / float64(replays), replays, nil
}
