package server

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
)

// sessionRecords executes n statements over three templates on db as
// session label, whose collector ordinal is sess, and returns their records
// as the session builds them.
func sessionRecords(t testing.TB, db *engine.DB, label string, sess int32, n int) []Record {
	t.Helper()
	sqls := make([]string, n)
	for i := range sqls {
		switch i % 3 {
		case 0:
			sqls[i] = fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i%200)
		case 1:
			sqls[i] = fmt.Sprintf("SELECT id FROM kv WHERE v BETWEEN %d AND %d", i, i+9)
		default:
			sqls[i] = fmt.Sprintf("UPDATE kv SET v = %d WHERE id = %d", i*7, i%200)
		}
	}
	return execRecords(t, db, label, sess, sqls)
}

// execRecords executes sqls on db as session label (ordinal sess) and
// returns their records.
func execRecords(t testing.TB, db *engine.DB, label string, sess int32, sqls []string) []Record {
	t.Helper()
	recs := make([]Record, len(sqls))
	for i, sql := range sqls {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = RecordOf(label, uint64(i+1), "", sql, res)
		recs[i].sess = sess
	}
	return recs
}

// interleave is two sessions' records in one arrival order: alternating.
func interleave(a, b []Record) []Record {
	var out []Record
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// replayOf is recs as a replay builds them: SQL alone, in canonical order.
func replayOf(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = Record{Session: r.Session, Seq: r.Seq, Trace: r.Trace, SQL: r.SQL, Stats: r.Stats}
	}
	SortWindow(out)
	return out
}

// inOrder is w's records, copied.
func inOrder(w []*Record) []Record {
	out := make([]Record, len(w))
	for i, rec := range w {
		out[i] = *rec
	}
	return out
}

// ptrs is recs as a window in their own order.
func ptrs(recs []Record) []*Record {
	out := make([]*Record, len(recs))
	for i := range recs {
		out[i] = &recs[i]
	}
	return out
}

// wrappedRing returns a collector whose n-record ring holds the newest n of
// n + n/4 statements from two interleaved sessions, and the SQL-only replay
// of those n.
func wrappedRing(t testing.TB, n int) (*Collector, []Record) {
	t.Helper()
	db := kvDB()
	c := NewCollector(0, nil)
	c.MaxBuffered = n
	arrived := interleave(sessionRecords(t, db, "conn-0002", 2, (n+n/4)/2), sessionRecords(t, db, "conn-0001", 1, (n+n/4)/2))
	for _, rec := range arrived {
		c.Observe(rec)
	}
	if c.head == 0 {
		t.Fatal("the ring did not wrap")
	}
	return c, replayOf(arrived[len(arrived)-n:])
}

// checkFold holds the fold of w to the fold of replay, the same statements
// as SQL alone: the same EventWindow queries, and per template the same
// statement, sums, samples and first-seen position.
func checkFold(t *testing.T, w []*Record, replay []Record) {
	t.Helper()
	mon, queries, err := ingestWindow(w)
	if err != nil {
		t.Fatal(err)
	}
	replayMon, replayQueries, err := ingestWindow(ptrs(replay))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(queries, replayQueries) {
		t.Fatalf("EventWindow queries differ:\n live   %+v\n replay %+v", queries, replayQueries)
	}
	if mon.Len() != replayMon.Len() {
		t.Fatalf("%d templates live, %d replayed", mon.Len(), replayMon.Len())
	}
	for _, q := range mon.Queries() {
		r := replayMon.Get(q.Normalized)
		if r == nil {
			t.Fatalf("replay monitor lacks %q", q.Normalized)
		}
		if q.Executions != r.Executions || q.RowsRead != r.RowsRead || q.RowsSent != r.RowsSent ||
			math.Float64bits(q.CPUSeconds) != math.Float64bits(r.CPUSeconds) || q.FirstSeen != r.FirstSeen ||
			!reflect.DeepEqual(q.SampleSQL, r.SampleSQL) || !reflect.DeepEqual(q.SampleStats, r.SampleStats) ||
			q.Stmt.SQL() != r.Stmt.SQL() {
			t.Fatalf("%q folds differently:\n live   %+v\n replay %+v", q.Normalized, q, r)
		}
	}
}

// TestIngestWindowIsTemplateSized pins the two halves of "parse once": a
// live window seals and folds with allocations that depend on its templates
// and sessions, not its statements, and it folds to exactly what the
// SQL-only replay of the same statements folds to.
func TestIngestWindowIsTemplateSized(t *testing.T) {
	small, _ := wrappedRing(t, 64)
	big, replay := wrappedRing(t, 4096)
	// AllocsPerRun counts every goroutine's allocations, so under a loaded
	// -race suite one sample can carry a few strays: take the least of
	// several, and hold the growth against the 4 032 extra records rather
	// than against an absolute slack.
	allocs := func(c *Collector) float64 {
		least := math.Inf(1)
		for i := 0; i < 5; i++ {
			least = math.Min(least, testing.AllocsPerRun(10, func() {
				if _, _, err := ingestWindow(seal(c.buf, c.head, c.sessions)); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if a, b := allocs(small), allocs(big); b-a > float64(len(big.buf)-len(small.buf))/100 {
		t.Fatalf("seal and fold allocate per statement: %.0f allocations for 64 records, %.0f for 4096", a, b)
	}
	w := big.Flush()
	checkCanonical(t, inOrder(w))
	if mon, _, _ := ingestWindow(w); mon.Len() != 3 {
		t.Fatalf("want three templates, got %d", mon.Len())
	}
	checkFold(t, w, replay)
}

// TestFoldEqualsReplay holds the windows a live collector can seal to the
// SQL-only replay of their statements: a run out of seq order (the fallback
// order), two spellings of one template (two cache entries, one query), and
// a template cache that starts over mid-window (one entry ID naming two
// templates).
func TestFoldEqualsReplay(t *testing.T) {
	t.Run("non-ascending run", func(t *testing.T) {
		c := NewCollector(0, nil)
		a, b := int32(1), int32(2)
		db := kvDB()
		arrived := interleave(sessionRecords(t, db, "conn-0001", a, 30), sessionRecords(t, db, "conn-0002", b, 30))
		arrived[2], arrived[4] = arrived[4], arrived[2] // conn-0001's seq 3 before its seq 2
		for _, rec := range arrived {
			c.Observe(rec)
		}
		w := c.Flush()
		checkCanonical(t, inOrder(w))
		checkFold(t, w, replayOf(arrived))
	})
	t.Run("two digests, one template", func(t *testing.T) {
		db := kvDB()
		var sqls []string
		for i := 0; i < 20; i++ {
			sqls = append(sqls, fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i), fmt.Sprintf("SELECT v FROM kv WHERE id = (%d)", i))
		}
		recs := execRecords(t, db, "conn-0001", 1, sqls)
		if e, f := recs[0].entry, recs[1].entry; e == nil || f == nil || e == f || e.Text != f.Text {
			t.Fatalf("want two cache entries of one template, got %+v and %+v", e, f)
		}
		w := ptrs(recs)
		checkFold(t, w, replayOf(recs))
		if mon, _, _ := ingestWindow(w); mon.Len() != 1 || mon.Queries()[0].Executions != 40 {
			t.Fatalf("two spellings folded into %d queries", mon.Len())
		}
	})
	t.Run("cache reset mid-window", func(t *testing.T) {
		db := kvDB()
		mixed := func(from int) []string {
			var sqls []string
			for i := from; i < from+5; i++ {
				sqls = append(sqls, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", 1000+i), fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i))
			}
			return sqls
		}
		before := execRecords(t, db, "conn-0001", 1, mixed(0))
		// New shapes until the cache starts over: the next entries take the
		// IDs that before's entries hold.
		for i := 0; db.MustExec(fmt.Sprintf("SELECT v AS c%d FROM kv WHERE id = 1", i)).Entry.ID != 0; i++ {
			if i == 10000 {
				t.Fatal("the template cache never started over")
			}
		}
		after := execRecords(t, db, "conn-0001", 1, mixed(10))
		for i := range after {
			after[i].Seq += uint64(len(before))
		}
		var reused bool
		for _, x := range before[:2] {
			for _, y := range after[:2] {
				reused = reused || x.entry.ID == y.entry.ID && x.entry.Text != y.entry.Text
			}
		}
		if !reused {
			t.Fatal("no entry ID named two templates across the reset")
		}
		recs := append(before, after...)
		checkFold(t, ptrs(recs), replayOf(recs))
	})
}

// TestVerdictsBounded runs more cycles than the tuner keeps lines for: the
// newest maxVerdicts survive, oldest first, and a latched FATAL line takes
// the newest slot and stays.
func TestVerdictsBounded(t *testing.T) {
	db := engine.New("verdicts")
	db.MustExec(`CREATE TABLE kv (id INT, v INT, PRIMARY KEY (id))`)
	tuner := &Tuner{DB: db, Adv: core.NewAdvisor(db, core.DefaultConfig()), Detector: regression.NewDetector(0.5), Gate: shadow.DefaultGate()}
	const cycles = 1100
	for i := 0; i < cycles; i++ {
		if _, err := tuner.CycleWindow(nil); err != nil {
			t.Fatal(err)
		}
	}
	v := tuner.Verdicts()
	if len(v) != maxVerdicts {
		t.Fatalf("kept %d verdict lines after %d cycles, want %d", len(v), cycles, maxVerdicts)
	}
	for i, line := range v {
		if want := fmt.Sprintf("cycle %d: ", cycles-maxVerdicts+i); !strings.HasPrefix(line, want) {
			t.Fatalf("line %d = %q, want prefix %q", i, line, want)
		}
	}
	if _, err := tuner.CycleWindow([]Record{{Session: "s", Seq: 1, SQL: "SELEKT broken"}}); err == nil {
		t.Fatal("unparsable window record did not fail the cycle")
	}
	tuner.CycleWindow(nil) //nolint:errcheck // latched: adds no line
	v = tuner.Verdicts()
	if len(v) != maxVerdicts || !strings.HasPrefix(v[len(v)-1], "FATAL ") ||
		!strings.HasPrefix(v[0], fmt.Sprintf("cycle %d: ", cycles-maxVerdicts+1)) {
		t.Fatalf("after the latch: %d lines, first %q, last %q", len(v), v[0], v[len(v)-1])
	}
}

func checkCanonical(t *testing.T, w []Record) {
	t.Helper()
	for i := 1; i < len(w); i++ {
		a, b := &w[i-1], &w[i]
		if a.Session > b.Session || (a.Session == b.Session && a.Seq >= b.Seq) {
			t.Fatalf("window out of canonical order at %d: %s#%d before %s#%d", i, a.Session, a.Seq, b.Session, b.Seq)
		}
	}
}

// TestCollectorDropsOldest fills a bounded collector past its bound from two
// interleaved sessions: the newest MaxBuffered statements survive, in
// canonical order, every drop is counted, and a full buffer takes a
// statement without allocating.
func TestCollectorDropsOldest(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCollector(0, reg)
	c.MaxBuffered = 8
	for seq := uint64(1); seq <= 10; seq++ {
		for _, session := range []string{"b", "a"} {
			if w := c.Observe(Record{Session: session, Seq: seq}); w != nil {
				t.Fatalf("manual collector sealed on Observe: %v", inOrder(w))
			}
		}
	}
	if got := reg.Counter("server.window_dropped").Value(); got != 12 {
		t.Fatalf("server.window_dropped = %d, want 12", got)
	}
	var got []string
	for _, rec := range inOrder(c.Flush()) {
		got = append(got, fmt.Sprintf("%s#%d", rec.Session, rec.Seq))
	}
	if want := "a#7 a#8 a#9 a#10 b#7 b#8 b#9 b#10"; strings.Join(got, " ") != want {
		t.Fatalf("flushed %v, want %s", got, want)
	}
	if c.Buffered() != 0 || c.Flush() != nil {
		t.Fatal("flush left statements behind")
	}

	for seq := uint64(1); seq <= 8; seq++ {
		c.Observe(Record{Session: "a", Seq: seq})
	}
	seq := uint64(8)
	if allocs := testing.AllocsPerRun(100, func() {
		seq++
		c.Observe(Record{Session: "a", Seq: seq})
	}); allocs != 0 {
		t.Fatalf("Observe on a full buffer allocates %.0f times", allocs)
	}
	checkCanonical(t, inOrder(c.Flush()))
}

// TestCollectorSizesRingFromLastWindow: the ring after a seal is allocated
// at the length of the window just sealed, so the short windows an OpTune
// flushes keep short buffers and an auto-sealed window gets exactly Window.
func TestCollectorSizesRingFromLastWindow(t *testing.T) {
	for _, tc := range []struct{ window, statements, want int }{{0, 30, 30}, {16, 16, 16}} {
		c := NewCollector(tc.window, nil)
		for seq := 1; seq <= tc.statements; seq++ {
			c.Observe(Record{Session: "a", Seq: uint64(seq)})
		}
		if tc.window == 0 && c.Flush() == nil {
			t.Fatal("flush sealed nothing")
		}
		c.Observe(Record{Session: "a", Seq: uint64(tc.statements + 1)})
		if got := cap(c.buf); got != tc.want {
			t.Errorf("window %d after %d statements: next ring holds %d records, want %d", tc.window, tc.statements, got, tc.want)
		}
	}
}

// TestCollectorSealsOutOfOrderSession hands the collector what no session
// produces — one session's statements out of seq order — and still gets the
// canonical window: the run concatenation is a fast path, not an assumption.
func TestCollectorSealsOutOfOrderSession(t *testing.T) {
	c := NewCollector(0, nil)
	for _, rec := range []Record{{Session: "b", Seq: 3}, {Session: "a", Seq: 1}, {Session: "b", Seq: 1}, {Session: "a", Seq: 2}, {Session: "b", Seq: 2}} {
		c.Observe(rec)
	}
	w := inOrder(c.Flush())
	if len(w) != 5 {
		t.Fatalf("flushed %d records, want 5", len(w))
	}
	checkCanonical(t, w)
}

// TestCollectorFlushRacesObservers runs eight sessions against a collector
// that auto-seals while another goroutine flushes: every statement lands in
// exactly one window and every window is in canonical order. Run under
// -race, it is also the check that sealing outside the lock shares nothing.
func TestCollectorFlushRacesObservers(t *testing.T) {
	const sessions, perSession = 8, 500
	c := NewCollector(64, nil)
	c.MaxBuffered = sessions * perSession // nothing may be dropped
	var (
		mu      sync.Mutex
		windows [][]Record
		wg      sync.WaitGroup
	)
	keep := func(w []*Record) {
		if w != nil {
			mu.Lock()
			windows = append(windows, inOrder(w))
			mu.Unlock()
		}
	}
	done := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-done:
				return
			default:
				keep(c.Flush())
			}
		}
	}()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(session string, sess int32) {
			defer wg.Done()
			for seq := uint64(1); seq <= perSession; seq++ {
				keep(c.Observe(Record{Session: session, Seq: seq, sess: sess}))
			}
		}(fmt.Sprintf("conn-%04d", s), int32(s+1))
	}
	wg.Wait()
	close(done)
	<-flushed
	keep(c.Flush())

	seen := map[string]bool{}
	for _, w := range windows {
		checkCanonical(t, w)
		for _, rec := range w {
			id := fmt.Sprintf("%s#%d", rec.Session, rec.Seq)
			if seen[id] {
				t.Fatalf("statement %s sealed twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != sessions*perSession {
		t.Fatalf("sealed %d statements, observed %d", len(seen), sessions*perSession)
	}
}

// BenchmarkSealAndFold seals and folds one mixed_rw-shaped window: 4 096
// records from two sessions (a quarter primary-key reads, a quarter
// secondary-index reads, a fifth inserts, a fifth indexed-column updates, a
// tenth deletes) in a ring that has wrapped. One op is one window; ns/record
// is the per-statement cost of the cycle's ingestion.
func BenchmarkSealAndFold(b *testing.B) {
	const n, rows = 4096, 2000
	db := engine.New("sealfold")
	db.MustExec(`CREATE TABLE events (id INT, user_id INT, kind INT, day INT, score INT, note VARCHAR(16), PRIMARY KEY (id))`)
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d, %d, 'n%d')", i, i%100, i%8, i%30, i%1000, i%1000))
	}
	for _, ddl := range []string{"CREATE INDEX ix_user ON events (user_id)", "CREATE INDEX ix_day ON events (day)", "CREATE INDEX ix_kind_score ON events (kind, score)"} {
		db.MustExec(ddl)
	}
	db.Analyze()
	c := NewCollector(0, nil)
	c.MaxBuffered = n
	labels, sess := []string{"conn-0002", "conn-0001"}, []int32{1, 2}
	next := rows
	for i := 0; i < n+n/4; i++ {
		var sql string
		switch p := i * 37 % 100; {
		case p < 25:
			sql = fmt.Sprintf("SELECT score, day FROM events WHERE id = %d", i%rows)
		case p < 50:
			sql = fmt.Sprintf("SELECT id, score FROM events WHERE user_id = %d", i%100)
		case p < 70:
			sql = fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d, %d, 'n%d')", next, i%100, i%8, i%30, i%1000, i%1000)
			next++
		case p < 90:
			sql = fmt.Sprintf("UPDATE events SET score = %d WHERE id = %d", i%1000, i%rows)
		default:
			sql = fmt.Sprintf("DELETE FROM events WHERE id = %d", i%rows)
		}
		res, err := db.Exec(sql)
		if err != nil {
			b.Fatal(err)
		}
		s := i % 2
		rec := RecordOf(labels[s], uint64(i/2+1), "", sql, res)
		rec.sess = sess[s]
		c.Observe(rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ingestWindow(seal(c.buf, c.head, c.sessions)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
