package scenarios

import (
	"fmt"
	"math/rand"

	"aim/internal/engine"
	"aim/internal/sqltypes"
)

// Fleet parameters.
const (
	fleetRows     = 2000
	fleetSessions = 16
)

// Fleet is the live-serving acceptance workload: a read-only mix on one
// events table — two hot filter shapes on unindexed columns (the advisor must
// converge) plus a cold day probe — issued by sixteen concurrent sessions.
// Read-only is what lets the sessions run side by side: the table is frozen
// within a window, so every statement's execution statistics depend only on
// the statement and the index set, never on how the sessions interleaved, and
// a networked run is replayable offline byte for byte. It is the one scenario
// whose profile asks for more than one session.
type Fleet struct{}

// NewFleet returns a fresh generator.
func NewFleet() *Fleet { return &Fleet{} }

// Name implements Scenario.
func (f *Fleet) Name() string { return "fleet" }

// Description implements Scenario.
func (f *Fleet) Description() string {
	return "read-only mix from 16 concurrent sessions; three indexes adopted in the first window, nothing reverted"
}

// Profile implements Scenario. The full length is the nightly soak (`make
// servesoak`), the reduced one `make servesuite`'s acceptance run.
func (f *Fleet) Profile() Profile {
	return Profile{
		Cycles:           40,
		ReducedCycles:    6,
		WindowStatements: 20 * fleetSessions,
		Sessions:         fleetSessions,
		RequireAdoption:  true,
		FinalContains:    []string{"events(day)", "events(kind,score)", "events(user_id)"},
	}
}

// Setup implements Scenario: one events table, 2000 rows.
func (f *Fleet) Setup(r *rand.Rand) (*engine.DB, error) {
	db := engine.New("fleet")
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, PRIMARY KEY (id))`)
	batch := make([]sqltypes.Row, 0, fleetRows)
	for i := 0; i < fleetRows; i++ {
		batch = append(batch, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(r.Intn(150))),
			sqltypes.NewInt(int64(r.Intn(8))),
			sqltypes.NewInt(int64(r.Intn(365))),
			sqltypes.NewInt(int64(r.Intn(1000))),
		})
	}
	if err := db.InsertRows("events", batch); err != nil {
		return nil, fmt.Errorf("fleet: %v", err)
	}
	db.Analyze()
	return db, nil
}

// Advance implements Scenario (nothing changes under the fleet).
func (f *Fleet) Advance(*engine.DB, int, *rand.Rand) error { return nil }

// Statement implements Scenario.
func (f *Fleet) Statement(_ int, r *rand.Rand) string {
	switch r.Intn(8) {
	case 0, 1:
		return fmt.Sprintf("SELECT id FROM events WHERE kind = %d AND score > %d", r.Intn(8), r.Intn(900))
	case 2:
		return fmt.Sprintf("SELECT id FROM events WHERE day = %d", r.Intn(365))
	default:
		return fmt.Sprintf("SELECT score FROM events WHERE user_id = %d", r.Intn(150))
	}
}
