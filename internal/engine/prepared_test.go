package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/optimizer"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/workloads/products"
)

// newEventsDB loads the benchmark's fixture A at a test's size: events(id PK,
// user_id, kind, day, score, note) and users(id PK, name, tier), one user per
// ten events, with the three secondary indexes of the serving workloads.
func newEventsDB(tb testing.TB, events int) *engine.DB {
	tb.Helper()
	db := engine.New("events")
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, note VARCHAR(16), PRIMARY KEY (id))`)
	db.MustExec(`CREATE TABLE users (id INT, name VARCHAR(16), tier INT, PRIMARY KEY (id))`)
	r := rand.New(rand.NewSource(1))
	users := events / 10
	rows := make([]sqltypes.Row, events)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(r.Intn(users))), sqltypes.NewInt(int64(r.Intn(8))),
			sqltypes.NewInt(int64(r.Intn(365))), sqltypes.NewInt(int64(r.Intn(1000))), sqltypes.NewString(fmt.Sprintf("n%d", r.Intn(1000))),
		}
	}
	if err := db.InsertRows("events", rows); err != nil {
		tb.Fatal(err)
	}
	rows = make([]sqltypes.Row, users)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("u%d", i)), sqltypes.NewInt(int64(r.Intn(5)))}
	}
	if err := db.InsertRows("users", rows); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateIndexes([]*catalog.Index{
		{Name: "ix_events_user", Table: "events", Columns: []string{"user_id"}, CreatedBy: "dba"},
		{Name: "ix_events_day", Table: "events", Columns: []string{"day"}, CreatedBy: "dba"},
		{Name: "ix_events_kind_score", Table: "events", Columns: []string{"kind", "score"}, CreatedBy: "dba"},
	}); err != nil {
		tb.Fatal(err)
	}
	db.Analyze()
	return db
}

// TestPreparedHitAllocs pins what a memo hit leaves of ExecStmt's allocations
// on the benchmark's point read: 133 per statement before the planner was
// split, 114 of them in planning.
func TestPreparedHitAllocs(t *testing.T) {
	db := newEventsDB(t, 20000)
	stmt, err := sqlparser.Parse("SELECT score, day FROM events WHERE id = 4711")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecStmt(stmt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.ExecStmt(stmt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ExecStmt on a warm WHERE id = ?: %.0f allocs", allocs)
	if want := maxAllocs(45); allocs > want {
		t.Fatalf("ExecStmt on a warm point read allocates %.0f times, want <= %.0f", allocs, want)
	}
}

// maxAllocs is an allocation pin's bound: want, except under the race
// detector, whose runtime allocates for its own bookkeeping and drops a
// quarter of sync.Pool puts at random, so there the pins keep the bound of
// 60 that TestPreparedHitAllocs held before the template cache.
func maxAllocs(want float64) float64 {
	if raceEnabled {
		return 60
	}
	return want
}

// TestDigestHitAllocs pins what the template cache leaves of Exec's
// allocations on the benchmark's point read: 68 per statement when every
// execution parsed and normalized, 45 of them with a parsed statement in hand
// (TestPreparedHitAllocs).
func TestDigestHitAllocs(t *testing.T) {
	db := newEventsDB(t, 20000)
	const sql = "SELECT score, day FROM events WHERE id = 4711"
	want := db.MustExec(sql)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Exec on a warm WHERE id = ?: %.0f allocs", allocs)
	if want := maxAllocs(32); allocs > want {
		t.Fatalf("Exec on a warm point read allocates %.0f times, want <= %.0f", allocs, want)
	}
	got := db.MustExec(sql)
	if got.Template != want.Template || !reflect.DeepEqual(got.Params, want.Params) || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("a cache hit returns %q %v %v, the miss %q %v %v", got.Template, got.Params, got.Rows, want.Template, want.Params, want.Rows)
	}
}

// TestTemplateCacheUnderConcurrentReads runs point reads from four goroutines
// at once, as the server's read gate lets sessions do, over more shapes (an
// alias each) than the template cache holds, so that lookups, inserts and
// the cache starting over race with executions of a shared template. Every
// statement must return the rows it returns alone.
func TestTemplateCacheUnderConcurrentReads(t *testing.T) {
	db := newEventsDB(t, 2000)
	ref := db.Clone("reference")
	defer ref.Release()
	const shapes = 1200
	sql := func(i int) string {
		return fmt.Sprintf("SELECT score AS s%d FROM events WHERE id = %d", i%shapes, i%2000)
	}
	want := make([]sqltypes.Row, 2*shapes)
	for i := range want {
		want[i] = ref.MustExec(sql(i)).Rows[0]
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < len(want); n++ {
				i := (n*7 + g*shapes/4) % len(want)
				res, err := db.Exec(sql(i))
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], want[i]) || res.Columns[0] != fmt.Sprintf("s%d", i%shapes) {
					t.Errorf("%s: %v %v, want %v", sql(i), res.Columns, res.Rows, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPreparedSurvivesAdoptAndRevert pins stale-plan safety: a memoised
// template picks up an index the moment it is created or adopted and never
// names one again once it is dropped, on the database and on a clone of it
// (which starts cold and shares no entry with its origin).
func TestPreparedSurvivesAdoptAndRevert(t *testing.T) {
	const sql = "SELECT id, day FROM events WHERE score = 500"
	def := &catalog.Index{Name: "ix_events_score", Table: "events", Columns: []string{"score"}}
	fresh := newEventsDB(t, 3000).MustExec(sql)

	check := func(t *testing.T, db *engine.DB, create func(*engine.DB) error) {
		t.Helper()
		before := db.MustExec(sql)
		if len(before.UsedIndexes) != 0 {
			t.Fatalf("before the index: plan %v", before.PlanDesc)
		}
		if err := create(db); err != nil {
			t.Fatal(err)
		}
		with := db.MustExec(sql)
		if !reflect.DeepEqual(with.UsedIndexes, []string{def.Name}) {
			t.Fatalf("the memoised template ignores the new index: plan %v", with.PlanDesc)
		}
		if _, err := db.DropIndex(def.Name); err != nil {
			t.Fatal(err)
		}
		after, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("after the revert: %v", err)
		}
		if !reflect.DeepEqual(after.PlanDesc, fresh.PlanDesc) || !reflect.DeepEqual(after.UsedIndexes, fresh.UsedIndexes) ||
			!reflect.DeepEqual(after.Rows, fresh.Rows) || after.Stats != fresh.Stats {
			t.Fatalf("after the revert: plan %v stats %+v, a fresh database has %v %+v", after.PlanDesc, after.Stats, fresh.PlanDesc, fresh.Stats)
		}
		if st := db.Optimizer.PreparedStats(); st.Hits != 0 || st.Misses != 3 {
			t.Fatalf("three executions across two catalog changes: %+v, want three misses", st)
		}
	}
	build := func(db *engine.DB) error {
		_, err := db.CreateIndexes([]*catalog.Index{def.Materialized()})
		return err
	}
	adopt := func(db *engine.DB) error {
		built := db.Clone("built")
		defer built.Release()
		if err := build(built); err != nil {
			return err
		}
		_, err := db.AdoptIndexes(built, []*catalog.Index{def.Materialized()})
		return err
	}
	db := newEventsDB(t, 3000)
	t.Run("create", func(t *testing.T) { check(t, db, build) })
	warm := db.Optimizer.PreparedStats()
	clone := db.Clone("clone")
	defer clone.Release()
	t.Run("adopt on a clone", func(t *testing.T) { check(t, clone, adopt) })
	if got := db.Optimizer.PreparedStats(); got != warm {
		t.Fatalf("the clone's executions moved its origin's memo: %+v -> %+v", warm, got)
	}
}

// fuzzBases are the two databases FuzzPreparedEqualsOneShot clones per input:
// fixture A and a small products schema with its DBA indexes.
var fuzzBases struct {
	once    sync.Once
	events  *engine.DB
	product *products.Product
	err     error
}

// fuzzStatement draws one statement on fixture A: the benchmark's templates
// and every shape the planner treats specially, with values inside and
// outside the histograms.
func fuzzStatement(r *rand.Rand, nextID *int) string {
	v := func(n int) int { // mostly in range, sometimes far outside it
		switch r.Intn(10) {
		case 0:
			return -1 - r.Intn(50)
		case 1:
			return n + r.Intn(1_000_000)
		}
		return r.Intn(n)
	}
	// Pairs that differ in where a parenthesis sits, or in a join hint, must
	// not share a template: either form, at random.
	paren := func(open, shut string) (string, string) {
		if r.Intn(2) == 0 {
			return "", ""
		}
		return open, shut
	}
	switch r.Intn(34) {
	case 30:
		open, shut := paren("(", ")")
		return fmt.Sprintf("SELECT id, score FROM events WHERE id = %d - %s%d - %d%s", 300+v(300), open, v(300), v(100), shut)
	case 31:
		open, shut := paren("(", ")")
		return fmt.Sprintf("SELECT id FROM events WHERE score = %skind + %d%s * %d", open, v(20), shut, 1+r.Intn(9))
	case 32:
		open, shut := paren("(", ")")
		return fmt.Sprintf("UPDATE events SET day = %d WHERE id = %d - %s%d - %d%s", v(365), 300+v(300), open, v(300), v(100), shut)
	case 33:
		hint, _ := paren("STRAIGHT_JOIN ", "")
		return fmt.Sprintf("SELECT %se.id, u.tier FROM users u, events e WHERE u.id = e.user_id AND u.tier = %d AND e.day = %d", hint, v(5), v(365))
	case 0:
		return fmt.Sprintf("SELECT score, day FROM events WHERE id = %d", v(600))
	case 1:
		return fmt.Sprintf("SELECT id, score FROM events WHERE user_id = %d", v(60))
	case 2:
		return fmt.Sprintf("SELECT id, score FROM events WHERE day = %d", v(365))
	case 3:
		return fmt.Sprintf("SELECT id FROM events WHERE day > %d AND day <= %d", v(365), v(365))
	case 4:
		return fmt.Sprintf("SELECT id, kind FROM events WHERE %d < score AND %d = kind", v(1000), v(8))
	case 5:
		return fmt.Sprintf("SELECT kind, COUNT(*), SUM(score) FROM events WHERE day BETWEEN %d AND %d GROUP BY kind", v(365), v(365))
	case 6:
		return fmt.Sprintf("SELECT e.id, u.tier FROM events e JOIN users u ON u.id = e.user_id WHERE e.day = %d LIMIT 200", v(365))
	case 7:
		return fmt.Sprintf("SELECT id, score FROM events WHERE kind = %d AND score > %d ORDER BY score LIMIT %d", v(8), v(1000), 1+r.Intn(20))
	case 8:
		return fmt.Sprintf("SELECT id FROM events WHERE kind IN (%d, %d) AND day = %d", v(8), v(8), v(365))
	case 9:
		return fmt.Sprintf("SELECT id FROM events WHERE note LIKE 'n%d%%' AND kind = %d", r.Intn(100), v(8))
	case 10:
		return "SELECT id FROM events WHERE user_id = NULL"
	case 11:
		return fmt.Sprintf("SELECT id FROM events WHERE user_id <=> NULL OR day = %d", v(365))
	case 12:
		return fmt.Sprintf("SELECT id, tier FROM users WHERE name = 'u%d'", v(60))
	case 13:
		return fmt.Sprintf("SELECT id, score + 1 FROM events WHERE id = %d", v(600))
	case 14:
		return fmt.Sprintf("SELECT id FROM events WHERE (day = %d OR kind = %d) AND score > %d", v(365), v(8), v(1000))
	case 15:
		return fmt.Sprintf("SELECT DISTINCT kind FROM events WHERE day = %d", v(365))
	case 16:
		return fmt.Sprintf("SELECT day, COUNT(*) FROM events WHERE kind = %d GROUP BY day ORDER BY day LIMIT 5", v(8))
	case 17:
		return fmt.Sprintf("SELECT e.id FROM events e JOIN users u ON u.id = e.user_id JOIN events f ON f.user_id = u.id WHERE e.id = %d AND f.score > %d", v(600), v(1000))
	case 18:
		return fmt.Sprintf("SELECT id FROM events WHERE score > %d.5 AND kind = %d", v(1000), v(8))
	case 19:
		return fmt.Sprintf("SELECT u.name, COUNT(*) FROM users u JOIN events e ON e.user_id = u.id WHERE u.tier = %d AND e.kind = %d GROUP BY u.name", v(5), v(8))
	case 20:
		return fmt.Sprintf("UPDATE events SET score = %d WHERE id = %d", v(1000), v(600))
	case 21:
		return fmt.Sprintf("UPDATE events SET note = 'x%d' WHERE day BETWEEN %d AND %d", r.Intn(100), v(365), v(365))
	case 22:
		return fmt.Sprintf("UPDATE events SET day = %d, kind = %d WHERE user_id = %d", v(365), v(8), v(60))
	case 23:
		return fmt.Sprintf("DELETE FROM events WHERE id = %d", v(600))
	case 24:
		return fmt.Sprintf("DELETE FROM events WHERE score > %d AND day = %d", v(1000), v(365))
	case 25:
		*nextID++
		return fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d, %d, 'n%d')", *nextID, v(60), v(8), v(365), v(1000), r.Intn(1000))
	case 26:
		*nextID += 2
		return fmt.Sprintf("INSERT INTO events (id, user_id, day) VALUES (%d, %d, %d), (%d, %d, %d)", *nextID-1, v(60), v(365), *nextID, v(60), v(365))
	case 27:
		return "SELECT id FROM events WHERE id = ?"
	case 28:
		return fmt.Sprintf("SELECT id FROM events WHERE day = %d AND score = NULL", v(365))
	default:
		return fmt.Sprintf("SELECT id FROM nowhere WHERE id = %d", v(600))
	}
}

// fuzzProductStatement draws a products read, or a write by key or by range.
func fuzzProductStatement(r *rand.Rand, p *products.Product, nextID *int) string {
	table := fmt.Sprintf("t%03d", r.Intn(p.Spec.Tables))
	switch r.Intn(8) {
	case 0:
		return fmt.Sprintf("UPDATE %s SET c7 = %d WHERE id = %d", table, r.Intn(10000), r.Intn(200))
	case 1:
		return fmt.Sprintf("UPDATE %s SET c4 = %d WHERE c4 BETWEEN %d AND %d", table, r.Intn(100), r.Intn(100), r.Intn(100))
	case 2:
		return fmt.Sprintf("DELETE FROM %s WHERE id = %d", table, r.Intn(200))
	case 3:
		*nextID++
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d, %d, %d, 's%d', %d, %d)", table, *nextID, r.Intn(12), r.Intn(3), r.Intn(240), r.Intn(100), r.Intn(12), r.Intn(15), r.Intn(10000))
	default:
		return p.SampleRead(r)
	}
}

// FuzzPreparedEqualsOneShot is the identity pin of the planner split. One
// seeded stream — statements of every shape with random parameters, index
// DDL, bulk writes past the statistics churn rule, ANALYZE — is fed to three
// handles on the same rows: Exec (the memoised door behind the template
// cache), ExecOneShot (the planner with nothing kept) and ExecStmt on a handle
// whose memo is pushed past its capacity every few steps (the eviction path).
// Every statement must return the same rows, Stats, plan, indexes and error
// on all three, and the same template and parameters from both memoised
// doors.
func FuzzPreparedEqualsOneShot(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(120))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		b := &fuzzBases
		b.once.Do(func() {
			b.events = newEventsDB(t, 600)
			b.product, b.err = products.Build(products.Spec{Name: "Fuzz", Tables: 4, JoinQueries: 8,
				Type: products.ReadHeavy, TargetDBA: 6, RowsPerTable: 120, Seed: 7})
			if b.err == nil {
				b.err = b.product.ApplyDBAIndexes()
			}
		})
		if b.err != nil {
			t.Fatal(b.err)
		}
		r := rand.New(rand.NewSource(seed))
		base, onEvents := b.events, seed%3 != 0
		if !onEvents {
			base = b.product.DB
		}
		memo, oneShot, evicted := base.Clone("memo"), base.Clone("one-shot"), base.Clone("evicted")
		defer memo.Release()
		defer oneShot.Release()
		defer evicted.Release()
		all := []*engine.DB{memo, oneShot, evicted}

		tables, cols := []string{"events", "users"}, []string{"user_id", "kind", "day", "score", "note"}
		if !onEvents {
			tables, cols = []string{"t000", "t001", "t002", "t003"}, []string{"c1", "c2", "c3", "c4", "c5", "c6"}
		}
		nextID := 1_000_000
		for step := 0; step < int(steps); step++ {
			if step%16 == 15 {
				evictAll(t, evicted, tables[0])
			}
			switch op := r.Intn(40); {
			case op == 0: // create an index, or drop it when it exists
				def := &catalog.Index{Table: tables[0], Columns: []string{cols[r.Intn(len(cols))]}}
				if r.Intn(2) == 0 {
					def.Columns = append(def.Columns, cols[r.Intn(len(cols))])
				}
				def.Name = "fz_" + strings.Join(def.Columns, "_")
				for _, db := range all {
					if db.Schema.Index(def.Name) != nil {
						db.DropIndex(def.Name) //nolint:errcheck // exists
					} else {
						db.CreateIndex(def.Materialized()) //nolint:errcheck // a repeated column is refused alike
					}
				}
			case op == 1: // drop any index
				if ixs := memo.Schema.Indexes(); len(ixs) > 0 {
					name := ixs[r.Intn(len(ixs))].Name
					for _, db := range all {
						db.DropIndex(name) //nolint:errcheck // exists on all
					}
				}
			case op == 2 && onEvents: // a bulk write that trips the churn rule
				rows := make([]sqltypes.Row, 300)
				for i := range rows {
					nextID++
					rows[i] = sqltypes.Row{sqltypes.NewInt(int64(nextID)), sqltypes.NewInt(int64(r.Intn(60))), sqltypes.NewInt(int64(r.Intn(3))),
						sqltypes.NewInt(int64(300 + r.Intn(65))), sqltypes.NewInt(int64(r.Intn(100))), sqltypes.NewString("bulk")}
				}
				for _, db := range all {
					if err := db.InsertRows("events", rows); err != nil {
						t.Fatal(err)
					}
				}
			case op == 3:
				for _, db := range all {
					db.Analyze()
				}
			default:
				sql := fuzzStatement(r, &nextID)
				if !onEvents {
					sql = fuzzProductStatement(r, b.product, &nextID)
				}
				stmt, err := sqlparser.Parse(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				want, wantErr := oneShot.ExecOneShot(stmt)
				got, gotErr := memo.Exec(sql)
				sameOutcome(t, "Exec", sql, got, gotErr, want, wantErr)

				parsed, parsedErr := evicted.ExecStmt(stmt)
				sameOutcome(t, "ExecStmt after evictions", sql, parsed, parsedErr, want, wantErr)
				if gotErr == nil && (got.Template != parsed.Template || !reflect.DeepEqual(got.Params, parsed.Params)) {
					t.Fatalf("%s: Exec normalizes to %q %v, ExecStmt to %q %v", sql, got.Template, got.Params, parsed.Template, parsed.Params)
				}
			}
		}
		if st := evicted.Optimizer.PreparedStats(); steps >= 16 && st.Evictions == 0 {
			t.Fatalf("the memo pushed past its capacity evicted nothing: %+v", st)
		}
	})
}

// evictAll pushes db's memo past its capacity with throwaway keys, so every
// template prepared so far is evicted. There is no smaller memo to ask for:
// the capacity is a constant of the planner.
func evictAll(t *testing.T, db *engine.DB, table string) {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT id FROM " + table + " WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*optimizer.PreparedCapacity; i++ {
		if _, _, err := db.Optimizer.PlanSelect("evict "+strconv.Itoa(i), stmt.(*sqlparser.Select), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreparedKeyTellsTreesApart pins that the memo's key is faithful to the
// statement's structure: statements that differ only in where a parenthesis
// sits, or in a join hint, run back to back on one handle each get their own
// prepare and the rows and plan of the one-shot planner.
func TestPreparedKeyTellsTreesApart(t *testing.T) {
	db := newEventsDB(t, 600)
	ref := db.Clone("one-shot")
	defer ref.Release()
	for _, pair := range [][2]string{
		{"SELECT id FROM events WHERE id = 500 - (100 - 50)", "SELECT id FROM events WHERE id = 500 - 100 - 50"},
		{"SELECT id FROM events WHERE score = (kind + 1) * 2", "SELECT id FROM events WHERE score = kind + 1 * 2"},
		{"UPDATE events SET note = 'hit' WHERE id = 500 - (100 - 50)", "UPDATE events SET note = 'hit' WHERE id = 500 - 100 - 50"},
		{"SELECT STRAIGHT_JOIN e.id FROM users u, events e WHERE u.id = e.user_id AND e.day = 7",
			"SELECT e.id FROM users u, events e WHERE u.id = e.user_id AND e.day = 7"},
	} {
		before := db.Optimizer.PreparedStats()
		var plans [2][]string
		for round := 0; round < 2; round++ { // the second round runs on the entries of the first
			for i, sql := range pair {
				stmt, err := sqlparser.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := ref.ExecOneShot(stmt)
				got, gotErr := db.ExecStmt(stmt)
				sameOutcome(t, "ExecStmt", sql, got, gotErr, want, wantErr)
				plans[i] = got.PlanDesc
			}
		}
		if d := db.Optimizer.PreparedStats().Delta(before); d.Misses != 2 || d.Hits != 2 {
			t.Errorf("%s | %s: %+v, want a prepare each and a hit each", pair[0], pair[1], d)
		}
		if strings.Contains(pair[0], "STRAIGHT_JOIN") && reflect.DeepEqual(plans[0], plans[1]) {
			t.Errorf("the hint changes nothing: both plan %v", plans[0])
		}
	}
}

// sameOutcome fails unless got is want in everything a caller can see but the
// template fields.
func sameOutcome(t *testing.T, door, sql string, got *engine.Result, gotErr error, want *engine.Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: %s fails with %v, the one-shot planner with %v", sql, door, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got.PlanDesc, want.PlanDesc) || !reflect.DeepEqual(got.UsedIndexes, want.UsedIndexes) {
		t.Fatalf("%s: %s plans %v %v, the one-shot planner %v %v", sql, door, got.PlanDesc, got.UsedIndexes, want.PlanDesc, want.UsedIndexes)
	}
	if got.Stats != want.Stats || !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s: %s returns %d rows %+v, the one-shot planner %d rows %+v", sql, door, len(got.Rows), got.Stats, len(want.Rows), want.Stats)
	}
}

// TestBypassRepeatAllocs pins the template cache's Bypass marker: a repeated
// statement whose shape must be planned as written (an IN list, a LIKE) pays
// the digest pass plus Parse and NewTemplate, and not ParseShape's record of
// where each literal came from on top, which its first execution paid.
func TestBypassRepeatAllocs(t *testing.T) {
	db := newEventsDB(t, 2000)
	for _, sql := range []string{
		"SELECT score, day FROM events WHERE kind IN (1, 2, 3) AND day = 7",
		"SELECT id FROM users WHERE name LIKE 'u1%'",
	} {
		if _, err := db.Prepare(sql); err != nil {
			t.Fatal(err)
		}
		prepare := testing.AllocsPerRun(200, func() {
			if _, err := db.Prepare(sql); err != nil {
				t.Fatal(err)
			}
		})
		var d sqlparser.Digest
		scan := testing.AllocsPerRun(200, func() { d.Scan(sql) })
		parse := testing.AllocsPerRun(200, func() {
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			sqlparser.NewTemplate(stmt)
		})
		shape := testing.AllocsPerRun(200, func() {
			if _, _, _, err := sqlparser.ParseShape(sql, len(d.Lits)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: Prepare %.0f allocs; Scan %.0f, Parse + NewTemplate %.0f, ParseShape %.0f", sql, prepare, scan, parse, shape)
		if want := maxAllocs(scan + parse); prepare > want || (!raceEnabled && prepare >= scan+shape) {
			t.Fatalf("%s: a repeated Bypass Prepare allocates %.0f times, want <= Scan + Parse + NewTemplate = %.0f", sql, prepare, want)
		}
	}
}
