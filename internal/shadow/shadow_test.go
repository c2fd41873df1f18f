package shadow

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aim/internal/btree"
	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/workload"
)

// mustParse parses a statement the test records with synthesized statistics.
func mustParse(t testing.TB, sql string) sqlparser.Statement {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func fixture(t testing.TB) (*engine.DB, *workload.Monitor) {
	t.Helper()
	db := engine.New("prod")
	db.MustExec("CREATE TABLE t (id INT, a INT, b INT, c VARCHAR(8), PRIMARY KEY (id))")
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, 'w%d')",
			i, r.Intn(100), r.Intn(10), r.Intn(5)))
	}
	db.Analyze()
	mon := workload.NewMonitor()
	for i := 0; i < 20; i++ {
		sql := fmt.Sprintf("SELECT b FROM t WHERE a = %d", i%100)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		mon.Observe(sql, res)
	}
	return db, mon
}

func TestValidateAcceptsGoodIndex(t *testing.T) {
	db, mon := fixture(t)
	good := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, Hypothetical: true, CreatedBy: "aim"}
	rep, err := Validate(db, []*catalog.Index{good}, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("rejected: %s (outcomes %+v)", rep.Reason, rep.Outcomes)
	}
	if rep.TotalGain <= 0 {
		t.Errorf("gain = %v", rep.TotalGain)
	}
	if len(rep.AcceptedIndexes) != 1 {
		t.Error("accepted indexes missing")
	}
	// Validation must not touch the production database.
	if db.Schema.Index("aim_t_a") != nil {
		t.Fatal("validation leaked index into production")
	}
}

func TestValidateRejectsUselessIndex(t *testing.T) {
	db, mon := fixture(t)
	// An index on b doesn't help a-filtered queries enough: no query
	// improves by λ₂.
	useless := &catalog.Index{Name: "aim_t_b", Table: "t", Columns: []string{"b"}, Hypothetical: true}
	rep, err := Validate(db, []*catalog.Index{useless}, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatalf("useless index accepted (outcomes %+v)", rep.Outcomes)
	}
}

func TestValidateEmptyCandidates(t *testing.T) {
	db, mon := fixture(t)
	rep, err := Validate(db, nil, mon, DefaultGate())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("empty candidate set accepted")
	}
}

func TestValidateGateRegressionBound(t *testing.T) {
	db, mon := fixture(t)
	// Record a DML-heavy component whose cost increases with the index:
	// updates to the indexed column rewrite index entries. With a tiny λ₃
	// the per-query regression bound must trip. (Updates replay cleanly on
	// clones, unlike inserts, which would collide on primary keys.)
	for i := 0; i < 50; i++ {
		sql := fmt.Sprintf("UPDATE t SET a = a + 1 WHERE id = %d", i)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		mon.Observe(sql, res)
	}
	gate := DefaultGate()
	gate.Lambda3 = 0.0001
	gate.MinRegressCPU = 0 // pure-λ₃ semantics: no absolute noise floor
	idx := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, Hypothetical: true}
	rep, err := Validate(db, []*catalog.Index{idx}, mon, gate)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("regressing DML accepted under strict λ₃")
	}
}

func TestOutcomeChange(t *testing.T) {
	o := QueryOutcome{BeforeCPU: 2, AfterCPU: 1}
	if o.Change() != -0.5 {
		t.Errorf("change = %v", o.Change())
	}
	o = QueryOutcome{BeforeCPU: 0, AfterCPU: 1}
	if o.Change() != 0 {
		t.Error("zero baseline should be neutral")
	}
}

func TestReplayQueryDivergesOnOneSidedDMLError(t *testing.T) {
	// Two clones that are *already* out of step: the test side holds primary
	// key 42, the baseline does not. Replaying INSERT (42, ...) succeeds on
	// the baseline and fails with a duplicate-key error on the test side —
	// exactly the one-sided DML failure that must fail the validation closed
	// instead of silently continuing with diverged clones.
	mk := func(withExtra bool) *engine.DB {
		db := engine.New("clone")
		db.MustExec("CREATE TABLE t (id INT, a INT, PRIMARY KEY (id))")
		for i := 0; i < 10; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
		}
		if withExtra {
			db.MustExec("INSERT INTO t VALUES (42, 0)")
		}
		db.Analyze()
		return db
	}
	mon := workload.NewMonitor()
	if err := mon.RecordStmt(mustParse(t, "INSERT INTO t VALUES (42, 1)"), exec.Stats{RowsWritten: 1}); err != nil {
		t.Fatal(err)
	}
	q := mon.Queries()[0]

	baseline, test := mk(false), mk(true)
	_, _, _, err := replayQuery(baseline, test, q, 3, new(skips))
	if !errors.Is(err, errDiverged) {
		t.Fatalf("one-sided DML error returned %v, want errDiverged", err)
	}

	// The gate records the query as unreplayable and degrades the verdict,
	// without retrying the write on the diverged pair.
	if err := mon.RecordStmt(mustParse(t, "SELECT a FROM t WHERE id = 3"), exec.Stats{RowsRead: 10, RowsSent: 1}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	failpoint.Instrument(reg)
	defer failpoint.Instrument(nil)
	baseline, test = mk(false), mk(true)
	rep := judge(baseline, test, mon, DefaultGate(), new(skips))
	if rep.Accepted || !rep.Degraded || rep.Code != CodeUnreplayable ||
		len(rep.ReplayErrors) != 1 || rep.ReplayErrors[0] != q.Normalized || len(rep.Outcomes) != 1 {
		t.Fatalf("verdict on a diverging write: %+v", rep)
	}
	if got := reg.Counter("faults.retries").Value(); got != 0 {
		t.Errorf("the diverging write was retried %d times on the diverged pair", got)
	}
	if res := baseline.MustExec("SELECT a FROM t WHERE id = 42"); len(res.Rows) != 1 {
		t.Fatalf("baseline rows for id=42: %d", len(res.Rows))
	}
}

func TestReplayQuerySkipsBothSidedErrors(t *testing.T) {
	// When BOTH clones fail the same replay (duplicate key on each), the
	// clones stay in step: the sample is skipped, not treated as divergence.
	mk := func() *engine.DB {
		db := engine.New("clone")
		db.MustExec("CREATE TABLE t (id INT, a INT, PRIMARY KEY (id))")
		for i := 0; i < 10; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
		}
		db.Analyze()
		return db
	}
	baseline, test := mk(), mk()
	mon := workload.NewMonitor()
	// id 5 exists on both sides: both inserts fail identically.
	if err := mon.RecordStmt(mustParse(t, "INSERT INTO t VALUES (5, 1)"), exec.Stats{RowsWritten: 1}); err != nil {
		t.Fatal(err)
	}
	q := mon.Queries()[0]
	var sk skips
	_, _, _, err := replayQuery(baseline, test, q, 3, &sk)
	if errors.Is(err, errDiverged) {
		t.Fatal("both-sided error misreported as divergence")
	}
	if err == nil {
		t.Fatal("expected no-replayable-samples error")
	}
	if sk != (skips{failedBoth: 1}) {
		t.Fatalf("skipped samples = %+v, want the one both-sided failure counted", sk)
	}
}

func TestReplayCountRecordedInOutcome(t *testing.T) {
	db, mon := fixture(t)
	good := &catalog.Index{Name: "aim_t_a", Table: "t", Columns: []string{"a"}, Hypothetical: true, CreatedBy: "aim"}
	gate := DefaultGate()
	gate.MaxReplays = 2
	rep, err := Validate(db, []*catalog.Index{good}, mon, gate)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	for _, out := range rep.Outcomes {
		if out.Replays < 1 || out.Replays > gate.MaxReplays {
			t.Errorf("outcome %s replays = %d, want 1..%d", out.Normalized, out.Replays, gate.MaxReplays)
		}
	}
}

// TestClonePairSharesStatistics: the before/after comparison is like for
// like only if both sides plan from the same statistics. Materializing the
// candidates on the built snapshot must not re-collect them — the baseline
// snapshot and the test clone differ in the candidate indexes and nothing
// else.
func TestClonePairSharesStatistics(t *testing.T) {
	db, _ := fixture(t)
	var f frozen
	if err := f.take(db, []*catalog.Index{goodIndex()}); err != nil {
		t.Fatal(err)
	}
	test := f.testSide()
	defer release(f.base, f.built, test)
	for _, tbl := range db.Schema.Tables() {
		ts := db.TableStats(tbl.Name)
		if f.base.TableStats(tbl.Name) != ts || test.TableStats(tbl.Name) != ts {
			t.Errorf("%s: baseline snapshot and test clone do not share production's statistics", tbl.Name)
		}
	}
	if f.base.Schema.Index("aim_t_a") != nil || test.Store.Table("t").Index("aim_t_a") == nil {
		t.Fatal("candidate must be materialized on the test side only")
	}
}

// writingGate is a clone gate that counts its acquisitions and, each time it
// is given back, lets a session's write through — the statement that was
// parked on the gate while the snapshot was taken.
type writingGate struct {
	locks int
	db    *engine.DB
	next  int
}

func (g *writingGate) Lock() { g.locks++ }
func (g *writingGate) Unlock() {
	g.next++
	g.db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 1, 1, 'late')", 100000+g.next))
}

// TestValidateComparesOneSnapshot: the two sides of the gate's comparison
// must hold the rows of one instant. A validation takes the clone gate
// exactly once; the test clone taken from its snapshot takes no gate at all
// and shares one clustered tree with the baseline snapshot, so a write
// landing right behind the snapshot is on neither side. (Two gated clones,
// as before, put that write on the test side only.)
func TestValidateComparesOneSnapshot(t *testing.T) {
	db, mon := fixture(t)
	gate := &writingGate{db: db}
	db.SetCloneGate(gate)
	cands := []*catalog.Index{goodIndex()}
	rep, err := Validate(db, cands, mon, DefaultGate())
	if err != nil || !rep.Accepted {
		t.Fatalf("validation: %+v, %v", rep, err)
	}
	rep.Release()
	if gate.locks != 1 {
		t.Fatalf("one validation took the clone gate %d times, want once", gate.locks)
	}

	var f frozen
	if err := f.take(db, cands); err != nil {
		t.Fatal(err)
	}
	defer release(f.base, f.built)
	rows := db.Store.Table("t").RowCount() - 1 // the write behind this snapshot
	test := f.testSide()
	defer release(test)
	b, s := f.base.Store.Table("t"), test.Store.Table("t")
	btree.Diff(b.Data(), s.Data(), func(key []byte, _, _ sqltypes.Row) bool {
		t.Fatalf("the sides differ at key %x", key)
		return false
	})
	if b.RowCount() != rows || s.RowCount() != rows {
		t.Fatalf("%d and %d rows, want the snapshot's %d", b.RowCount(), s.RowCount(), rows)
	}
	if gate.locks != 2 {
		t.Fatalf("a snapshot and its test clone took the clone gate %d times, want once", gate.locks-1)
	}
}
