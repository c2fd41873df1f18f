// Package scenarios is the adversarial workload suite: seeded, deterministic
// generators for the workload patterns known to break index automation in
// production — diurnal read/write shifts, flash crowds, mid-stream schema
// migrations, slowly drifting range predicates, write-amplification traps,
// the paper's own §VI-D code push followed by a data surge, and the
// concurrent read-only fleet of the live-serving suite. Each
// scenario emits a phased statement stream for the continuous-tuning loop
// plus a Profile describing both the loop policy it should run under and the
// stability bounds it is expected to satisfy (bounded adopt/revert flips,
// bounded time-to-revert after the trap). The harness in
// internal/experiments drives them and asserts the bounds.
//
// Determinism contract: for a fixed seed the statement stream depends only
// on the construction PRNG and the sequence of Statement calls — never on
// advisor, detector or catalog state — so a run is byte-identical across
// what-if worker counts, and FuzzScenarioDeterminism holds two fresh
// instances of the same scenario to byte equality.
package scenarios

import (
	"math/rand"
	"sort"

	"aim/internal/engine"
)

// Profile bundles a scenario's run shape, the loop policy it needs, and the
// stability bounds the harness asserts.
type Profile struct {
	// Cycles is the full acceptance run length (AIM_SCENARIO_SUITE=1);
	// ReducedCycles the fast tier-1 length. WindowStatements sizes each
	// cycle's workload window.
	Cycles           int
	ReducedCycles    int
	WindowStatements int
	// Sessions is how many concurrent sessions a window is dealt to (0 = one).
	// Only a read-only scenario may ask for more than one: sessions interleave
	// freely over TCP, and a write would make one statement's statistics
	// depend on which others ran first.
	Sessions int
	// TrapCycle is the cycle at which the adversarial shift lands (the mix
	// flips, the crowd ends, the migration starts). Time-to-revert bounds
	// are measured from it.
	TrapCycle int

	// Loop policy: detector tuning and retirement behavior the scenario is
	// designed to exercise. Zero values select the detector defaults.
	ConfirmWindows   int
	AnchorWindows    int
	RevertCooldown   int
	MaintenanceGuard bool
	ApplyDrops       bool
	DropAfterUnused  int

	// Stability bounds. MaxFlipsPerKey caps re-adoptions after a revert for
	// any one index (0 = no flips tolerated). RevertWithin, with
	// RequireRevert, bounds the windows between the trap and the first
	// revert. RequireAdoption asserts the loop adopted at least one index.
	MaxFlipsPerKey  int
	RevertWithin    int
	RequireAdoption bool
	RequireRevert   bool
	// FinalContains/FinalExcludes pin catalog keys that must (not) survive
	// to the end of the run — e.g. the cold v1 index a migration must not
	// spuriously retire, or the trapped index a write-heavy mix must shed.
	FinalContains []string
	FinalExcludes []string
}

// Scenario is one adversarial workload generator. Implementations carry
// private sampling state (live row counts, fresh-id counters) that advances
// only through Setup/Statement calls.
type Scenario interface {
	// Name is the registry key ("diurnal", "flashcrowd", ...).
	Name() string
	// Description is the one-line summary shown by aimbench.
	Description() string
	// Profile returns the run shape, loop policy and stability bounds.
	Profile() Profile
	// Setup builds the initial database and derives the generator's
	// sampling state from r.
	Setup(r *rand.Rand) (*engine.DB, error)
	// Advance applies scenario side effects (schema migration, backfill) at
	// the start of the given cycle, before the cycle's window executes.
	Advance(db *engine.DB, cycle int, r *rand.Rand) error
	// Statement draws the next workload statement for the cycle.
	Statement(cycle int, r *rand.Rand) string
}

// All returns fresh instances of every scenario, in stable order.
func All() []Scenario {
	return []Scenario{
		NewDiurnal(),
		NewFlashCrowd(),
		NewMigration(),
		NewDrift(),
		NewWriteTrap(),
		NewCodePush(),
		NewFleet(),
	}
}

// Names lists the registry keys, sorted.
func Names() []string {
	var out []string
	for _, sc := range All() {
		out = append(out, sc.Name())
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh instance of the named scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range All() {
		if sc.Name() == name {
			return sc, true
		}
	}
	return nil, false
}
