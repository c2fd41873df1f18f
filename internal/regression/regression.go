// Package regression implements the continuous regression detector
// (§VII-C): an off-host process that watches per-normalized-query average
// CPU over time windows and flags automation-added indexes for removal when
// a query regresses after a physical design change.
package regression

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/workload"
)

// DefaultMaxBaselineAge is how many consecutive quiet windows a query's
// baseline survives before it is dropped.
const DefaultMaxBaselineAge = 4

// baseline is one query's remembered cpu_avg with its staleness: age 0 means
// the query qualified in the most recent window, age k that it has been
// carried forward through k quiet windows.
type baseline struct {
	cpu float64
	age int
	// ref and streak implement the confirmation hysteresis: while a
	// suspected regression is confirming, ref pins the pre-regression
	// cpu_avg and streak counts the consecutive windows above threshold.
	ref    float64
	streak int
	// anchor and anchorAge implement slow-drift detection: anchor is a
	// long-horizon baseline refreshed every AnchorWindows windows, so a
	// query whose cost creeps a few percent per window is still compared
	// against where it was many windows ago. anchorStreak counts consecutive
	// windows above the anchor threshold — like ref/streak, a single noisy
	// window must not fire the drift check when confirmation is required.
	anchor       float64
	anchorAge    int
	anchorStreak int
}

// Detector compares consecutive observation windows.
type Detector struct {
	// Threshold is the relative cpu_avg increase that counts as a
	// regression (e.g. 0.3 = +30%).
	Threshold float64
	// MinExecutions filters noise from rarely executed queries.
	MinExecutions int64
	// MaxBaselineAge bounds how many consecutive windows a baseline is
	// carried forward while its query is absent (or below MinExecutions).
	// Without carry-forward, a query that goes quiet for one window loses
	// its baseline and a subsequent regression is invisible; without the
	// bound, ancient baselines would flag long-changed queries forever.
	// 0 selects DefaultMaxBaselineAge.
	MaxBaselineAge int
	// ConfirmWindows requires a regression to persist for this many
	// consecutive windows — against the pinned pre-regression baseline, not
	// window-over-window — before it is reported. A workload alternating
	// just above and below the threshold then never confirms, so a noisy
	// boundary query cannot drive adopt/revert oscillation, while a genuine
	// step change still confirms (one window later per extra confirmation).
	// 0 or 1 reports on the first exceeding window (the original behavior).
	ConfirmWindows int
	// AnchorWindows, when positive, adds slow-drift detection: each query
	// keeps an anchor baseline refreshed every AnchorWindows windows, and a
	// query whose cpu_avg exceeds the anchor by Threshold is flagged even
	// when no single window-over-window step did. 0 disables the check, and
	// a predicate drifting a few percent per window evades detection.
	AnchorWindows int
	// RevertCooldown suppresses a just-reverted index for this many windows:
	// InCooldown reports true (so the loop can decline to re-adopt it) and
	// the detector stops naming it a suspect. Each further revert of the
	// same key doubles the suppression, bounding the adopt/revert flips of
	// any one index to O(log windows). 0 disables suppression.
	RevertCooldown int

	mu   sync.Mutex          // guards prev/cooldown: Observe vs. telemetry Baselines
	prev map[string]baseline // normalized query -> last known cpu_avg
	// cooldown maps index key -> remaining suppression windows; penalty
	// remembers the next suppression length (doubled on every revert).
	cooldown map[string]int
	penalty  map[string]int
}

// NewDetector returns a detector with the given regression threshold.
func NewDetector(threshold float64) *Detector {
	return &Detector{
		Threshold:      threshold,
		MinExecutions:  3,
		MaxBaselineAge: DefaultMaxBaselineAge,
		prev:           map[string]baseline{},
		cooldown:       map[string]int{},
		penalty:        map[string]int{},
	}
}

func (d *Detector) maxAge() int {
	if d.MaxBaselineAge > 0 {
		return d.MaxBaselineAge
	}
	return DefaultMaxBaselineAge
}

func (d *Detector) confirm() int {
	if d.ConfirmWindows > 1 {
		return d.ConfirmWindows
	}
	return 1
}

// NoteReverted starts (or escalates) the revert cooldown for the given index
// keys. A no-op when RevertCooldown is 0.
func (d *Detector) NoteReverted(keys ...string) {
	if d.RevertCooldown <= 0 || len(keys) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cooldown == nil {
		d.cooldown = map[string]int{}
		d.penalty = map[string]int{}
	}
	for _, k := range keys {
		p := d.penalty[k]
		if p <= 0 {
			p = d.RevertCooldown
		}
		d.cooldown[k] = p
		d.penalty[k] = p * 2
	}
}

// InCooldown reports whether the index key is inside its revert cooldown.
func (d *Detector) InCooldown(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cooldown[key] > 0
}

// Regression describes one detected per-query regression.
type Regression struct {
	Normalized string
	BeforeCPU  float64 // cpu_avg previous window
	AfterCPU   float64 // cpu_avg current window
	// BaselineAge is how many windows ago the baseline was last refreshed
	// (0 = the immediately preceding window).
	BaselineAge int
	// SuspectIndexes are the automation-created indexes the query's executed
	// plans read in the window (workload.QueryStats.UsedIndexes), in plan
	// order — the candidates to revert.
	SuspectIndexes []*catalog.Index
	// ReasonCode classifies the revert motive for the audit journal:
	// "query_regressed" (the default when empty), "maintenance_regression"
	// (write amplification outweighing read gain, ObserveMaintenance) or
	// "unused_index" (retired by the loop's unused-drop policy).
	ReasonCode string
}

// Change is the relative cpu_avg increase.
func (r *Regression) Change() float64 {
	if r.BeforeCPU == 0 {
		return 0
	}
	return (r.AfterCPU - r.BeforeCPU) / r.BeforeCPU
}

// String renders the finding.
func (r *Regression) String() string {
	return fmt.Sprintf("regression %.0f%%: %s (suspects: %d)", r.Change()*100, r.Normalized, len(r.SuspectIndexes))
}

// Observe ingests a finished window and returns regressions relative to the
// previous window. db resolves the suspects: the automation-created indexes
// among those the query's executed plans read, still in the catalog.
//
// Baselines of queries that do not qualify in the current window (absent, or
// below MinExecutions) are carried forward unchanged for up to
// MaxBaselineAge windows, so an active→quiet→regressed query is still
// compared against its last healthy baseline.
func (d *Detector) Observe(db *engine.DB, mon *workload.Monitor) []*Regression {
	reg := db.ObsRegistry()
	// The "regression.observe" failpoint models the off-host detector
	// missing a window (collector crash, stats pipeline outage). The window
	// is dropped wholesale: baselines are left untouched, so the next
	// observed window still compares against the last healthy one — a
	// missed window delays detection, it never corrupts baselines.
	if err := failpoint.Inject("regression.observe"); err != nil {
		reg.Counter("regression.dropped_windows").Inc()
		failpoint.CountDegraded()
		return nil
	}
	reg.Counter("regression.windows").Inc()
	d.mu.Lock()
	defer d.mu.Unlock()
	var found []*Regression
	cur := map[string]baseline{}
	for _, q := range mon.Queries() {
		if q.Executions < d.MinExecutions {
			continue
		}
		cpu := q.CPUAvg()
		prev, seen := d.prev[q.Normalized]
		nb := baseline{cpu: cpu}
		// Slow-drift anchor bookkeeping: carry the anchor until it ages out,
		// then re-anchor at the current level.
		if d.AnchorWindows > 0 {
			if !seen || prev.anchor <= 0 {
				nb.anchor = cpu
			} else {
				nb.anchor, nb.anchorAge = prev.anchor, prev.anchorAge+1
				// Refresh is postponed while a drift suspicion is confirming:
				// re-anchoring mid-streak would reset the comparison base to
				// the already-elevated level and hide the creep.
				if nb.anchorAge >= d.AnchorWindows && prev.anchorStreak == 0 {
					nb.anchor, nb.anchorAge = cpu, 0
				}
			}
		}
		if !seen || prev.cpu <= 0 {
			cur[q.Normalized] = nb
			continue
		}
		// Window-over-window check with confirmation hysteresis: while a
		// streak is confirming, compare against the pinned pre-regression
		// reference, not the already-elevated previous window.
		ref := prev.cpu
		if prev.streak > 0 && prev.ref > 0 {
			ref = prev.ref
		}
		flagged := false
		before, baseAge := ref, prev.age
		if ref > 0 && (cpu-ref)/ref > d.Threshold {
			nb.streak, nb.ref = prev.streak+1, ref
			if nb.streak >= d.confirm() {
				flagged = true
				nb.streak, nb.ref = 0, 0
				// Re-anchor so the same elevation is not re-flagged against
				// the stale anchor every following window.
				if d.AnchorWindows > 0 {
					nb.anchor, nb.anchorAge = cpu, 0
				}
			}
		}
		// Slow drift: the cumulative creep since the anchor exceeds the
		// threshold even though no single step did. Like the step check, it
		// must persist for ConfirmWindows consecutive windows — cumulative
		// creep does, an isolated noisy window does not.
		if !flagged && d.AnchorWindows > 0 && prev.anchor > 0 &&
			(cpu-prev.anchor)/prev.anchor > d.Threshold {
			nb.anchorStreak = prev.anchorStreak + 1
			if nb.anchorStreak >= d.confirm() {
				flagged = true
				before, baseAge = prev.anchor, prev.anchorAge
				nb.anchor, nb.anchorAge, nb.anchorStreak = cpu, 0, 0
				nb.streak, nb.ref = 0, 0
			}
		}
		cur[q.Normalized] = nb
		if !flagged {
			continue
		}
		r := &Regression{
			Normalized:  q.Normalized,
			BeforeCPU:   before,
			AfterCPU:    cpu,
			BaselineAge: baseAge,
		}
		for _, name := range q.UsedIndexes {
			ix := db.Schema.Index(name)
			if ix == nil || ix.CreatedBy == "" || ix.CreatedBy == "dba" {
				continue // gone since, or not the automation's to revert
			}
			if d.cooldown[ix.Key()] > 0 {
				continue // just reverted; do not thrash it again
			}
			r.SuspectIndexes = append(r.SuspectIndexes, ix)
		}
		found = append(found, r)
	}
	// Carry forward baselines for queries that went quiet this window,
	// aging them out past MaxBaselineAge.
	for k, b := range d.prev {
		if _, active := cur[k]; active {
			continue
		}
		if b.age+1 > d.maxAge() {
			continue
		}
		nb := b
		nb.age++
		cur[k] = nb
		reg.Counter("regression.baselines_carried").Inc()
	}
	// One Observe call ends one window: tick the revert cooldowns down.
	for k := range d.cooldown {
		if d.cooldown[k]--; d.cooldown[k] <= 0 {
			delete(d.cooldown, k)
		}
	}
	d.prev = cur
	reg.Gauge("regression.baselines").Set(int64(len(cur)))
	reg.Counter("regression.flagged").Add(int64(len(found)))
	sort.Slice(found, func(i, j int) bool {
		if ci, cj := found[i].Change(), found[j].Change(); ci != cj {
			return ci > cj
		}
		return found[i].Normalized < found[j].Normalized
	})
	return found
}

// Baseline is one remembered per-query baseline, exported for the /statusz
// telemetry endpoint.
type Baseline struct {
	Normalized string  `json:"query"`
	CPUAvg     float64 `json:"cpu_avg"`
	// Age is how many consecutive quiet windows the baseline has been
	// carried forward (0 = refreshed in the last observed window).
	Age int `json:"age"`
}

// Baselines returns the detector's current baselines, sorted by query.
// Safe to call concurrently with Observe.
func (d *Detector) Baselines() []Baseline {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Baseline, 0, len(d.prev))
	for q, b := range d.prev {
		out = append(out, Baseline{Normalized: q, CPUAvg: b.cpu, Age: b.age})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Normalized < out[j].Normalized })
	return out
}

// revertPolicy bounds per-index drop retries during a revert. Reverts are
// the last line of the no-regression guarantee, so they get a larger retry
// budget than forward-path operations.
var revertPolicy = failpoint.Policy{Attempts: 5, Base: time.Millisecond, Max: 16 * time.Millisecond, Deadline: 500 * time.Millisecond}

// Revert drops the suspect automation-created indexes of the given
// regressions and registers every dropped index with the revert cooldown, so
// the loop's next cycles neither re-suspect nor re-adopt it until the
// cooldown expires. It returns the dropped indexes' canonical catalog keys.
// Suspects already dropped (by an earlier call or a duplicate regression) are
// skipped, so Revert is idempotent. Failed drops are retried with backoff; an
// index that still cannot be dropped is surfaced through the
// regression.revert_failures and faults.degraded counters and left for the
// next detection window — the regression keeps flagging it, so the revert is
// re-attempted until it lands.
func (d *Detector) Revert(db *engine.DB, regs []*Regression) []string {
	span := db.ObsRegistry().StartSpan("regression/revert")
	defer span.End()
	jrn := db.AuditJournal()
	failures := 0
	seen := map[string]bool{}
	var keys []string
	for _, r := range regs {
		for _, ix := range r.SuspectIndexes {
			if seen[ix.Name] {
				continue
			}
			seen[ix.Name] = true
			if db.Schema.Index(ix.Name) == nil {
				continue // already gone: reverted earlier or dropped by hand
			}
			name := ix.Name
			err := revertPolicy.Do(func() error {
				_, err := db.DropIndex(name)
				if err != nil && db.Schema.Index(name) == nil {
					// A half-applied earlier attempt (or a concurrent drop)
					// finished the job; the goal state is reached.
					return nil
				}
				return err
			})
			if err != nil {
				failures++
				continue
			}
			keys = append(keys, ix.Key())
			if jrn != nil {
				reason := r.ReasonCode
				if reason == "" {
					reason = "query_regressed"
				}
				jrn.Append(&audit.Record{
					Event:      audit.EventRevert,
					SpanID:     span.ID(),
					IndexKey:   ix.Key(),
					Index:      ix.Name,
					Table:      ix.Table,
					ReasonCode: reason,
					Query:      r.Normalized,
					BeforeCPU:  r.BeforeCPU,
					AfterCPU:   r.AfterCPU,
				})
			}
		}
	}
	if failures > 0 {
		db.ObsRegistry().Counter("regression.revert_failures").Add(int64(failures))
		for i := 0; i < failures; i++ {
			failpoint.CountDegraded()
		}
	}
	if len(keys) > 0 {
		db.ObsRegistry().Counter("regression.reverted_indexes").Add(int64(len(keys)))
	}
	d.NoteReverted(keys...)
	return keys
}
