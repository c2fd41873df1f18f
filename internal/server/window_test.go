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
	"aim/internal/exec"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
	"aim/internal/sqlparser"
)

// testWindow returns n records over three templates from two sessions in
// canonical order, twice: as sessions build them (statement and template)
// and as a replay builds them (SQL alone).
func testWindow(t testing.TB, n int) (live, replay []Record) {
	t.Helper()
	for _, session := range []string{"conn-0001", "conn-0002"} {
		for i := 0; i < n/2; i++ {
			var sql string
			switch i % 3 {
			case 0:
				sql = fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i)
			case 1:
				sql = fmt.Sprintf("SELECT id FROM kv WHERE v BETWEEN %d AND %d", i, i+9)
			default:
				sql = fmt.Sprintf("UPDATE kv SET v = %d WHERE id = %d", i*7, i)
			}
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			rec := Record{Session: session, Seq: uint64(i + 1),
				SQL: sql, Stats: exec.Stats{RowsRead: int64(i%7 + 1), RowsSent: int64(i % 3), PageReads: int64(i%5 + 1)}}
			replay = append(replay, rec)
			rec.template, _ = sqlparser.Normalize(stmt)
			live = append(live, rec)
		}
	}
	return live, replay
}

// TestIngestWindowIsTemplateSized pins the two halves of "parse once": a
// live window folds with allocations that depend on its templates, not its
// statements, and it folds to exactly what the SQL-only replay of the same
// statements folds to.
func TestIngestWindowIsTemplateSized(t *testing.T) {
	small, _ := testWindow(t, 64)
	big, replay := testWindow(t, 4096)
	// AllocsPerRun counts every goroutine's allocations, so under a loaded
	// -race suite one sample can carry a few strays: take the least of
	// several, and hold the growth against the 4 032 extra records rather
	// than against an absolute slack.
	allocs := func(w []Record) float64 {
		least := math.Inf(1)
		for i := 0; i < 5; i++ {
			least = math.Min(least, testing.AllocsPerRun(10, func() {
				if _, _, err := ingestWindow(w); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	if a, b := allocs(small), allocs(big); b-a > float64(len(big)-len(small))/100 {
		t.Fatalf("ingest allocates per statement: %.0f allocations for 64 records, %.0f for 4096", a, b)
	}

	liveMon, liveQueries, err := ingestWindow(big)
	if err != nil {
		t.Fatal(err)
	}
	replayMon, replayQueries, err := ingestWindow(replay)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveQueries, replayQueries) {
		t.Fatalf("EventWindow queries differ:\n live   %+v\n replay %+v", liveQueries, replayQueries)
	}
	if len(liveQueries) != 3 || liveMon.Len() != 3 || replayMon.Len() != 3 {
		t.Fatalf("want three templates, got %d window queries, %d live, %d replay", len(liveQueries), liveMon.Len(), replayMon.Len())
	}
	for _, q := range liveMon.Queries() {
		r := replayMon.Get(q.Normalized)
		if r == nil {
			t.Fatalf("replay monitor lacks %q", q.Normalized)
		}
		if q.Executions != r.Executions || q.RowsRead != r.RowsRead || q.RowsSent != r.RowsSent ||
			math.Float64bits(q.CPUSeconds) != math.Float64bits(r.CPUSeconds) ||
			!reflect.DeepEqual(q.SampleSQL, r.SampleSQL) || q.Stmt.SQL() != r.Stmt.SQL() {
			t.Fatalf("%q folds differently:\n live   %+v\n replay %+v", q.Normalized, q, r)
		}
	}
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
				t.Fatalf("manual collector sealed on Observe: %v", w)
			}
		}
	}
	if got := reg.Counter("server.window_dropped").Value(); got != 12 {
		t.Fatalf("server.window_dropped = %d, want 12", got)
	}
	w := c.Flush()
	var got []string
	for _, rec := range w {
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
	checkCanonical(t, c.Flush())
}

// TestCollectorSealsOutOfOrderSession hands the collector what no session
// produces — one session's statements out of seq order — and still gets the
// canonical window: the run concatenation is a fast path, not an assumption.
func TestCollectorSealsOutOfOrderSession(t *testing.T) {
	c := NewCollector(0, nil)
	for _, rec := range []Record{{Session: "b", Seq: 3}, {Session: "a", Seq: 1}, {Session: "b", Seq: 1}, {Session: "a", Seq: 2}, {Session: "b", Seq: 2}} {
		c.Observe(rec)
	}
	w := c.Flush()
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
	keep := func(w []Record) {
		if w != nil {
			mu.Lock()
			windows = append(windows, w)
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
		go func(session string) {
			defer wg.Done()
			for seq := uint64(1); seq <= perSession; seq++ {
				keep(c.Observe(Record{Session: session, Seq: seq}))
			}
		}(fmt.Sprintf("conn-%04d", s))
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
