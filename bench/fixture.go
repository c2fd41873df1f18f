package main

import (
	"fmt"
	"math/rand"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/sqltypes"
	"aim/internal/workloads/products"
)

const (
	eventDays  = 365
	eventKinds = 8
	maxScore   = 1000
)

// fixture is a loaded database plus what the correctness checks need to
// know about it.
type fixture struct {
	db *engine.DB
	// events/users are the row counts at build time; userCount and dayCount
	// tally events rows per user_id and per day.
	events, users int
	userCount     []int32
	dayCount      []int32
	// product is set on the tune_wide fixture only.
	product *products.Product
}

// buildEvents loads fixture A: events(id PK, user_id, kind, day, score,
// note) and users(id PK, name, tier), one user per ten events, optionally
// with the three secondary indexes of the serving workloads. Row values are
// drawn from seed; cardinalities are fixed.
func buildEvents(seed int64, events int, indexed bool) (*fixture, error) {
	users := events / 10
	f := &fixture{
		db:        engine.New("bench"),
		events:    events,
		users:     users,
		userCount: make([]int32, users),
		dayCount:  make([]int32, eventDays),
	}
	for _, ddl := range []string{
		`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, note VARCHAR(16), PRIMARY KEY (id))`,
		`CREATE TABLE users (id INT, name VARCHAR(16), tier INT, PRIMARY KEY (id))`,
	} {
		if _, err := f.db.Exec(ddl); err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	rows := make([]sqltypes.Row, events)
	for i := range rows {
		u, d := r.Intn(users), r.Intn(eventDays)
		f.userCount[u]++
		f.dayCount[d]++
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(u)),
			sqltypes.NewInt(int64(r.Intn(eventKinds))),
			sqltypes.NewInt(int64(d)),
			sqltypes.NewInt(int64(r.Intn(maxScore))),
			sqltypes.NewString(fmt.Sprintf("n%d", r.Intn(1000))),
		}
	}
	if err := f.db.InsertRows("events", rows); err != nil {
		return nil, err
	}
	rows = make([]sqltypes.Row, users)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("u%d", i)),
			sqltypes.NewInt(int64(r.Intn(5))),
		}
	}
	if err := f.db.InsertRows("users", rows); err != nil {
		return nil, err
	}
	if indexed {
		if _, err := f.db.CreateIndexes([]*catalog.Index{
			{Name: "ix_events_user", Table: "events", Columns: []string{"user_id"}, CreatedBy: "dba"},
			{Name: "ix_events_day", Table: "events", Columns: []string{"day"}, CreatedBy: "dba"},
			{Name: "ix_events_kind_score", Table: "events", Columns: []string{"kind", "score"}, CreatedBy: "dba"},
		}); err != nil {
			return nil, err
		}
	}
	f.db.Analyze()
	return f, nil
}

// buildProduct loads Product C of the paper's Table II (42 tables) with no
// secondary index. The schema and query templates come from the product's
// own fixed seed: the benchmark seed varies only the statements drawn.
func buildProduct(rowsPerTable int) (*fixture, error) {
	spec, _ := products.SpecByName("C")
	spec.RowsPerTable = rowsPerTable
	p, err := products.Build(spec)
	if err != nil {
		return nil, err
	}
	p.DropAllSecondaryIndexes()
	return &fixture{db: p.DB, product: p}, nil
}
