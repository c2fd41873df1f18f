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
	"strconv"
	"time"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/sqlparser"
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
	// loop immediately (the pair no longer compares like with like).
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
	// ReplayErrors lists normalized queries that could not be replayed at
	// all after retries (clone errors, a DML statement that failed on one
	// side of the pair only). Any entry here degrades the verdict: a gate
	// decided on partial evidence could let a regression through on exactly
	// the queries it failed to see.
	ReplayErrors []string
	// AcceptedIndexes are the indexes that survive validation (currently
	// all-or-nothing, like the paper's per-database gate).
	AcceptedIndexes []*catalog.Index
	// built is the snapshot an accepted report's candidates were materialized
	// on: the tuning cycle adopts those trees instead of building them again.
	built *engine.DB
}

// Built returns the snapshot holding an accepted report's validated trees
// (nil otherwise, and after Release), for engine.CatchUp.
func (r *Report) Built() *engine.DB { return r.built }

// Release retires that snapshot once the caller has adopted from it or given
// up. Idempotent; a report dropped without it only leaves the
// storage.snapshots_live gauge one high.
func (r *Report) Release() {
	release(r.built)
	r.built = nil
}

// errDiverged signals a one-sided DML replay failure: one clone applied the
// write and the other did not, so every subsequent replay would compare
// different data. Both sides hold the rows of one snapshot and differ only
// in non-unique secondary indexes, so only a bug gets here; the query is
// unreplayable and the verdict degraded, never retried on the diverged pair.
var errDiverged = errors.New("shadow: clones diverged on one-sided DML error")

// release retires snapshot handles (the storage.snapshots_live gauge).
func release(dbs ...*engine.DB) {
	for _, d := range dbs {
		if d != nil {
			d.Release()
		}
	}
}

// frozen is production frozen for one validation: base, the one gated O(1)
// copy-on-write snapshot, and built, a second handle over the same rows and
// statistics with the candidates materialized in one batch. The baseline side
// replays on base itself, which nothing reads once built is cloned from it;
// the test side replays on a clone of built, so no replay writes built and an
// accepted verdict hands its trees over. Both sides of every comparison hold
// the rows of one instant.
type frozen struct{ base, built *engine.DB }

// take fills f from db, retrying a failed attempt from scratch under
// clonePolicy; what the last attempt leaves in f is the caller's to release.
func (f *frozen) take(db *engine.DB, candidates []*catalog.Index) error {
	err := clonePolicy.Do(func() error {
		release(f.base, f.built)
		f.base, f.built = nil, nil
		if err := failpoint.Inject("shadow.clone"); err != nil {
			return err
		}
		var err error
		if f.base, err = db.CloneChecked("shadow-base"); err != nil {
			return err
		}
		f.built = f.base.Clone("shadow-built")
		defs := make([]*catalog.Index, len(candidates))
		for i, ix := range candidates {
			defs[i] = ix.Materialized()
		}
		if _, err := f.built.CreateIndexes(defs); err != nil {
			return fmt.Errorf("shadow: materializing candidates: %v", err)
		}
		return nil
	})
	if err != nil {
		db.ObsRegistry().Counter("shadow.clone_failures").Inc()
	}
	return err
}

// testSide clones built for the test side's replays, an O(1) clone that
// differs from base in the candidate indexes and nothing else.
// shadow.clone_pairs counts baseline/test pairs handed to replay — one per
// validation — not snapshots of production.
func (f *frozen) testSide() *engine.DB {
	f.base.ObsRegistry().Counter("shadow.clone_pairs").Inc()
	return f.built.Clone("shadow-test")
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
	var sk skips
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
		if sk.failedBoth > 0 {
			reg.Counter("shadow.replay_samples_skipped").Add(int64(sk.failedBoth))
			span.Annotate("skipped_failed_on_both_sides", strconv.Itoa(sk.failedBoth))
		}
		reg.Counter("shadow.baseline_recorded").Add(int64(sk.recorded))
		reg.Counter("shadow.baseline_replayed").Add(int64(sk.replayed))
		journalVerdict(db, span, candidates, mon, rep)
		return rep, nil
	}
	// Everything below runs on clones; production state is untouched until
	// the caller applies an accepted recommendation. A panic mid-validation
	// (e.g. an injected panic action in a clone build) therefore degrades
	// to "no change" instead of taking the tuning loop down. Every handle is
	// retired here, on every path, but built's when the report carries it out.
	var f frozen
	var test *engine.DB
	defer func() {
		if p := recover(); p != nil {
			rep, err = verdict(&Report{
				Degraded: true,
				Code:     CodePanicked,
				Reason:   fmt.Sprintf("validation panicked: %v", p),
			})
		}
		release(f.base, test)
		if rep.built == nil {
			release(f.built)
		}
	}()
	if len(candidates) == 0 {
		return verdict(&Report{Accepted: false, Code: CodeNoCandidates, Reason: "no candidate indexes"})
	}

	if err := f.take(db, candidates); err != nil {
		return verdict(&Report{
			Degraded: true,
			Code:     CodeCloneUnavailable,
			Reason:   fmt.Sprintf("clone environment unavailable: %v", err),
		})
	}
	test = f.testSide()
	if rep = judge(f.base, test, mon, gate, &sk); rep.Accepted {
		rep.AcceptedIndexes = candidates
		rep.built = f.built
	}
	return verdict(rep)
}

// judge replays mon on a baseline/test pair and applies the gate: fail
// closed on any unreplayable query, then Eq. 4, Eq. 3 and Eq. 2 in turn.
func judge(baseline, test *engine.DB, mon *workload.Monitor, gate Gate, sk *skips) *Report {
	reg := baseline.ObsRegistry()
	rep := &Report{}
	improvedOne := false
	var totalBefore, totalAfter float64
	for _, q := range mon.Queries() {
		var before, after float64
		var replays int
		rerr := replayPolicy.Do(func() error {
			var e error
			before, after, replays, e = replayQuery(baseline, test, q, gate.MaxReplays, sk)
			reg.Counter("shadow.replays").Add(int64(replays))
			return e
		})
		if rerr != nil {
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
		return rep
	}

	// Eq. 4: no individual regression beyond λ₃ (ignoring absolute deltas
	// under the MinRegressCPU noise floor).
	for _, out := range rep.Outcomes {
		if out.BeforeCPU > 0 && out.Change() > gate.Lambda3 &&
			out.AfterCPU-out.BeforeCPU >= gate.MinRegressCPU {
			rep.Code = CodeQueryRegressed
			rep.Reason = fmt.Sprintf("query regressed %.1f%% > λ₃: %s", out.Change()*100, out.Normalized)
			return rep
		}
	}
	// Eq. 3: at least one query improved by λ₂.
	if !improvedOne {
		rep.Code = CodeNoQueryImproved
		rep.Reason = "no query improved by λ₂"
		return rep
	}
	// Eq. 2 (approximated): the overall cost must not increase by more
	// than λ₁ relative to the candidate configuration's promise.
	if totalBefore > 0 && totalAfter > totalBefore*(1+gate.Lambda1) {
		rep.Code = CodeOverallRegressed
		rep.Reason = "overall cost regressed beyond λ₁"
		return rep
	}
	rep.Accepted = true
	rep.Code = CodeAccepted
	// Accepted verdicts carry the evidence, not just the word: how many
	// queries were compared and what the gate measured.
	rep.Reason = fmt.Sprintf("accepted: %d queries compared, gain %.4fs cpu/window", len(rep.Outcomes), rep.TotalGain)
	return rep
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
			QueriesUnreplayable: len(rep.ReplayErrors),
		})
	}
}

// skips counts the samples replayQuery dropped from the comparison because
// they failed on both sides (shadow.replay_samples_skipped; the validate span
// carries the count), and splits the compared ones by where their baseline
// came from (shadow.baseline_recorded, shadow.baseline_replayed).
type skips struct{ failedBoth, recorded, replayed int }

// VerifyRecorded, when set, is handed every recorded baseline replayQuery
// takes along with the baseline replay it stands for, to run and compare.
// Nothing the gate decides reads that replay. Set it before validations run.
var VerifyRecorded func(q *workload.QueryStats, recorded exec.Stats, replay func() (*engine.Result, error))

// replayQuery executes the query's samples on both clones and returns average
// CPU seconds per execution for each, plus the number of samples replayed. A
// sample runs as the session ran it (DB.Exec: Prepare, which finds its shape
// in the cache the clones share, then ExecPrepared). A sample that fails on
// both sides alike leaves the clones in step and is counted in sk, not
// compared. A one-sided DML failure returns errDiverged, marked
// non-retryable: the write landed on one clone only, so the pair is no longer
// comparable. The "replay.query" failpoint fires before any sample executes,
// so an injected replay failure is retryable without re-applying DML.
//
// A SELECT sample whose recorded stamp equals the baseline's stamp for the
// template at the moment it would replay takes its recorded Stats as the
// baseline instead: nothing its execution depended on has changed on the way
// to the baseline clone, DML samples replayed there included, so the replay
// would report those Stats again.
func replayQuery(baseline, test *engine.DB, q *workload.QueryStats, maxReplays int, sk *skips) (before, after float64, replays int, err error) {
	if err := failpoint.Inject("replay.query"); err != nil {
		return 0, 0, 0, err
	}
	samples := q.SampleSQL
	if maxReplays > 0 && len(samples) > maxReplays {
		samples = samples[:maxReplays]
	}
	_, isSelect := q.Stmt.(*sqlparser.Select)
	for i, sql := range samples {
		recorded := isSelect && q.SampleStamps[i] != 0 && baseline.Stamp(q.Stmt) == q.SampleStamps[i]
		var resB *engine.Result
		var errB error
		if recorded {
			resB = &engine.Result{Stats: q.SampleStats[i]}
			if VerifyRecorded != nil {
				VerifyRecorded(q, resB.Stats, func() (*engine.Result, error) { return baseline.Exec(sql) })
			}
		} else {
			resB, errB = baseline.Exec(sql)
		}
		// DML must not change clone contents between replays in a way that
		// breaks comparability; replay on both sides keeps them in step.
		resT, errT := test.Exec(sql)
		if errB != nil || errT != nil {
			if !isSelect && (errB == nil) != (errT == nil) {
				// The statement mutated exactly one clone.
				return 0, 0, replays, failpoint.Abort(errDiverged)
			}
			sk.failedBoth++
			continue
		}
		if recorded {
			sk.recorded++
		} else {
			sk.replayed++
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
