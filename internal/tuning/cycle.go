// Package tuning holds the one tuning cycle every driver runs: the offline
// batch loop (experiments.Loop, which the fault suite, the scenario suite and
// the §VI-D study share) and the live daemon (server.Tuner). Run is the only
// way in, and the package the only place that knows the order of the
// no-regression contract (§VII-B/C) — nothing changes the physical design
// without a shadow-gate verdict or a journaled revert reason, and what
// regresses is reverted.
package tuning

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/regression"
	"aim/internal/shadow"
	"aim/internal/storage"
	"aim/internal/workload"
)

// Cycle is one database plus the continuous-tuning machinery, driven one
// observed window at a time by Run. DB, Adv, Detector and Gate are required.
// The zero values of the policy fields are the default cycle: creations
// only, per-query regression detection only.
type Cycle struct {
	DB       *engine.DB
	Adv      *core.Advisor
	Detector *regression.Detector
	Gate     shadow.Gate

	// Read and Write are the two sides of the serving statement gate: phases
	// that read statistics hold Read (they must not race live DML), phases
	// that change the physical design hold Write. Nil means the caller
	// already serializes (offline). Shadow validation holds neither: its one
	// snapshot serializes through the engine's clone gate. Adoption holds
	// Write to catch the validated trees up and attach them, not to build.
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

	// Stab, when set, records every adopt/revert transition for the
	// stability assertions (flip counts, revert latency).
	Stab *regression.Stability
	// OnReport, when set, receives every shadow verdict (telemetry hook).
	OnReport func(*shadow.Report)

	// Outcome counters, aggregated over every Run.
	Adoptions           int
	ApplyFailures       int
	DegradedValidations int
	Reverted            int

	unusedStreak map[string]int
}

// Outcome is what one cycle did.
type Outcome struct {
	// Report is the shadow verdict; nil when no candidate reached the gate.
	Report *shadow.Report
	// Adopted are the catalog keys of the validated creations applied.
	Adopted []string
	// ApplyErr is set when an accepted batch failed to apply: the handoff (or
	// its fallback build) rolled it back, the catalog is unchanged and a
	// later cycle re-validates.
	ApplyErr error
	// Reverted are the catalog keys dropped this cycle, retirements first.
	Reverted []string
}

// hold runs f holding l (nil: nothing to hold).
func hold(l sync.Locker, f func()) {
	if l != nil {
		l.Lock()
		defer l.Unlock()
	}
	f()
}

// Run drives one tuning cycle over an observed window: recommend, gate the
// creations through shadow validation and apply only on acceptance (adopt),
// retire unused indexes, then let the regression detector revert what it
// flags. Every failure path degrades to "no change this cycle"; the error
// return is reserved for invariant violations, and an accepted-but-degraded
// verdict is the fatal one, because it would be an ungated adoption.
func (c *Cycle) Run(mon *workload.Monitor) (Outcome, error) {
	if c.Stab != nil {
		c.Stab.BeginWindow()
	}
	var rec *core.Recommendation
	var err error
	hold(c.Read, func() { rec, err = c.Adv.Recommend(mon) })
	if err != nil {
		return Outcome{}, fmt.Errorf("recommend: %v", err)
	}
	out, err := c.adopt(mon, rec.Create)
	if err != nil {
		return out, err
	}
	// Unused-index drops go through their own retirement path, never through
	// Apply: nothing changes the physical design without either a gate
	// verdict or a journaled revert reason.
	if c.ApplyDrops {
		c.revert(&out, c.retirements(rec.Drop))
	}
	var regs []*regression.Regression
	hold(c.Read, func() {
		regs = c.Detector.Observe(c.DB, mon)
		if c.MaintenanceGuard {
			regs = append(regs, c.Detector.ObserveMaintenance(c.DB, mon)...)
		}
	})
	c.revert(&out, regs)
	return out, nil
}

// adopt is the forward half of the cycle: drop candidates inside their
// revert cooldown, validate the rest on shadow snapshots, and when the gate
// accepts adopt exactly the validated creations — the trees it measured,
// handed over from the report's snapshot, or, when the table has moved too
// far from it for a catch-up to beat a build, built again under the gate.
func (c *Cycle) adopt(mon *workload.Monitor, create []*catalog.Index) (Outcome, error) {
	var out Outcome
	// An index the loop just reverted must wait its cooldown out, or a
	// borderline workload flips it adopt/revert forever.
	kept := make([]*catalog.Index, 0, len(create))
	for _, ix := range create {
		if !c.Detector.InCooldown(ix.Key()) {
			kept = append(kept, ix)
		}
	}
	if len(kept) == 0 {
		return out, nil
	}
	report, err := shadow.Validate(c.DB, kept, mon, c.Gate)
	if err != nil {
		return out, fmt.Errorf("validate: %v", err)
	}
	defer report.Release()
	out.Report = report
	if c.OnReport != nil {
		c.OnReport(report)
	}
	if report.Accepted && report.Degraded {
		return out, fmt.Errorf("degraded verdict accepted: %s", report.Reason)
	}
	if report.Degraded {
		c.DegradedValidations++
	}
	if !report.Accepted {
		return out, nil
	}
	hold(c.Write, func() {
		_, out.ApplyErr = c.Adv.Adopt(kept, report.Built())
		if errors.Is(out.ApplyErr, storage.ErrSnapshotStale) {
			_, out.ApplyErr = c.Adv.Apply(&core.Recommendation{Create: kept})
		}
	})
	if out.ApplyErr != nil {
		c.ApplyFailures++
		return out, nil
	}
	c.Adoptions++
	for _, ix := range kept {
		out.Adopted = append(out.Adopted, ix.Key())
	}
	if c.Stab != nil {
		c.Stab.NoteAdopted(out.Adopted...)
	}
	return out, nil
}

// revert drops the suspects of regs through the detector's revert path
// (idempotent drop, journal record, cooldown registration) and accounts the
// dropped keys.
func (c *Cycle) revert(out *Outcome, regs []*regression.Regression) {
	if len(regs) == 0 {
		return
	}
	var keys []string
	hold(c.Write, func() { keys = c.Detector.Revert(c.DB, regs) })
	c.Reverted += len(keys)
	out.Reverted = append(out.Reverted, keys...)
	if c.Stab != nil {
		c.Stab.NoteReverted(keys...)
	}
}

// retirements ages automation indexes through the advisor's unused-drop
// proposals and returns an "unused_index" regression for each one reported
// unused for DropAfterUnused consecutive windows, in key order. One busy
// window resets an index's streak.
func (c *Cycle) retirements(drop []*catalog.Index) []*regression.Regression {
	if c.unusedStreak == nil {
		c.unusedStreak = map[string]int{}
	}
	after := c.DropAfterUnused
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
	for k := range c.unusedStreak {
		if unused[k] == nil {
			delete(c.unusedStreak, k)
		}
	}
	sort.Strings(keys)
	var regs []*regression.Regression
	for _, k := range keys {
		c.unusedStreak[k]++
		if c.unusedStreak[k] < after {
			continue
		}
		delete(c.unusedStreak, k)
		regs = append(regs, &regression.Regression{
			ReasonCode:     "unused_index",
			SuspectIndexes: []*catalog.Index{unused[k]},
		})
	}
	return regs
}
