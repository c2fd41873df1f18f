package scenarios

import (
	"fmt"
	"math/rand"

	"aim/internal/engine"
	"aim/internal/sqltypes"
)

// Code-push parameters.
const (
	// CodePushCycle is the cycle whose window first carries the pushed
	// dashboard queries; the windows before it are the steady state, the ones
	// after it (up to the surge) the re-tuned state.
	CodePushCycle = 4
	// CodeSurgeCycle is the cycle at whose start the table triples (the
	// profile's TrapCycle).
	CodeSurgeCycle = 10
	codePushRows   = 4000
)

// CodePush is the paper's §VI-D continuous-tuning study as a scenario. The
// loop first tunes a steady workload of per-user point queries. At
// CodePushCycle a code push lands: half the traffic becomes new dashboard
// queries on (day, score) that no index serves, and the periodic AIM run
// that follows the shifted window must propose the fix and get it through
// the shadow gate. At CodeSurgeCycle the data triples under the tuned
// workload: every per-query cpu_avg scales with the matched row count, the
// detector cannot tell growth from a bad index, and its suspects — the
// automation indexes in the regressed queries' plans — are reverted. The
// cooldown then bounds the damage to one flip per index: the loop re-adopts
// what the larger table still needs and settles.
type CodePush struct{}

// NewCodePush returns a fresh generator.
func NewCodePush() *CodePush { return &CodePush{} }

// Name implements Scenario.
func (c *CodePush) Name() string { return "codepush" }

// Description implements Scenario.
func (c *CodePush) Description() string {
	return "code push adds unindexed dashboard queries at cycle 4, the table triples at cycle 10; fix adopted through the gate, surge reverts bounded to one flip"
}

// Profile implements Scenario.
func (c *CodePush) Profile() Profile {
	return Profile{
		Cycles:           40,
		ReducedCycles:    20,
		WindowStatements: 250,
		TrapCycle:        CodeSurgeCycle,
		RevertCooldown:   3,
		MaxFlipsPerKey:   1,
		RequireAdoption:  true,
		RequireRevert:    true,
		RevertWithin:     1,
		FinalContains:    []string{"events(user_id,kind)", "events(day,score)"},
	}
}

func eventRows(r *rand.Rand, firstID, n int) []sqltypes.Row {
	batch := make([]sqltypes.Row, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, sqltypes.Row{
			sqltypes.NewInt(int64(firstID + i)),
			sqltypes.NewInt(int64(r.Intn(300))),
			sqltypes.NewInt(int64(r.Intn(10))),
			sqltypes.NewInt(int64(r.Intn(365))),
			sqltypes.NewInt(int64(r.Intn(1000))),
			sqltypes.NewString(fmt.Sprintf("p%d", r.Intn(6))),
		})
	}
	return batch
}

// Setup implements Scenario: one events table, 4000 rows.
func (c *CodePush) Setup(r *rand.Rand) (*engine.DB, error) {
	db := engine.New("codepush")
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, payload VARCHAR(8), PRIMARY KEY (id))`)
	if err := db.InsertRows("events", eventRows(r, 0, codePushRows)); err != nil {
		return nil, fmt.Errorf("codepush: %v", err)
	}
	db.Analyze()
	return db, nil
}

// Advance implements Scenario: the data surge.
func (c *CodePush) Advance(db *engine.DB, cycle int, r *rand.Rand) error {
	if cycle != CodeSurgeCycle {
		return nil
	}
	if err := db.InsertRows("events", eventRows(r, codePushRows, 2*codePushRows)); err != nil {
		return fmt.Errorf("codepush: surge: %v", err)
	}
	db.Analyze()
	return nil
}

// Statement implements Scenario.
func (c *CodePush) Statement(cycle int, r *rand.Rand) string {
	if cycle < CodePushCycle || r.Intn(2) == 0 {
		return fmt.Sprintf("SELECT score FROM events WHERE user_id = %d AND kind = %d", r.Intn(300), r.Intn(10))
	}
	// The pushed dashboard queries: a threshold scan and a top-N by day.
	if r.Intn(2) == 0 {
		return fmt.Sprintf("SELECT id, score FROM events WHERE day = %d AND score > %d", r.Intn(365), r.Intn(800))
	}
	return fmt.Sprintf("SELECT id FROM events WHERE day BETWEEN %d AND %d ORDER BY day LIMIT 20", r.Intn(300), 320)
}
