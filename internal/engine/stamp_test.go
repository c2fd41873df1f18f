package engine_test

import (
	"fmt"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// newStampDB builds t1(id PK, a, b, c, d) and t2(id PK, x, y) with rows rows
// each, statistics collected, and the indexes named by mask's bits over
// stampIndexes.
func newStampDB(tb testing.TB, rows int, mask byte) *engine.DB {
	tb.Helper()
	db := engine.New("stamp")
	db.MustExec("CREATE TABLE t1 (id INT, a INT, b INT, c INT, d INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE t2 (id INT, x INT, y INT, PRIMARY KEY (id))")
	t1, t2 := make([]sqltypes.Row, rows), make([]sqltypes.Row, rows)
	for i := range t1 {
		t1[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 5)), sqltypes.NewInt(int64(i % 3)),
			sqltypes.NewInt(int64(rows - i)), sqltypes.NewInt(int64(i % 7))}
		t2[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 5)), sqltypes.NewInt(int64(i % 4))}
	}
	if err := db.InsertRows("t1", t1); err != nil {
		tb.Fatal(err)
	}
	if err := db.InsertRows("t2", t2); err != nil {
		tb.Fatal(err)
	}
	var defs []*catalog.Index
	for i, ix := range stampIndexes {
		if mask&(1<<i) != 0 {
			defs = append(defs, ix.Materialized())
		}
	}
	if _, err := db.CreateIndexes(defs); err != nil {
		tb.Fatal(err)
	}
	db.Analyze()
	return db
}

var stampIndexes = []*catalog.Index{
	{Name: "ix_a_c", Table: "t1", Columns: []string{"a", "c"}},
	{Name: "ix_b", Table: "t1", Columns: []string{"b"}},
	{Name: "ix_c", Table: "t1", Columns: []string{"c"}},
	{Name: "ix_x", Table: "t2", Columns: []string{"x"}},
	{Name: "ix_y_x", Table: "t2", Columns: []string{"y", "x"}},
}

// stampOf runs sql and returns its result and the template it ran as.
func stampOf(tb testing.TB, db *engine.DB, sql string) (*engine.Result, sqlparser.Statement) {
	tb.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		tb.Fatal(err)
	}
	tmpl, err := sqlparser.Parse(res.Template)
	if err != nil {
		tb.Fatal(err)
	}
	return res, tmpl
}

// TestStampMovesWithWhatTheReadSees pins the stamp's rule write by write: a
// SELECT's stamp moves on an insert, a delete, a primary-key update, an
// update of a column it names, an update of a column it does not name that
// changes an index entry, index DDL, and statistics gaining or losing an
// entry — and stays for an update of a column it neither names nor finds in
// an index, on this handle and on its clones, which start at their source's
// stamp and move apart from the first write on either side.
func TestStampMovesWithWhatTheReadSees(t *testing.T) {
	db := newStampDB(t, 50, 1) // ix_a_c only
	const read = "SELECT id, b FROM t1 WHERE a = 2 AND b = 1"
	res, tmpl := stampOf(t, db, read)
	if res.Stamp == 0 || db.Stamp(tmpl) != res.Stamp {
		t.Fatalf("stamp after the read %d, Stamp of its template %d", res.Stamp, db.Stamp(tmpl))
	}
	stays := func(what string) {
		t.Helper()
		if got := db.Stamp(tmpl); got != res.Stamp {
			t.Fatalf("%s moved the stamp %d -> %d", what, res.Stamp, got)
		}
	}
	moves := func(what string) {
		t.Helper()
		if got := db.Stamp(tmpl); got == res.Stamp {
			t.Fatalf("%s left the stamp at %d", what, got)
		}
		res, _ = stampOf(t, db, read)
	}
	db.MustExec("UPDATE t1 SET d = 100 WHERE id = 7")
	stays("an update of a column the read neither names nor finds in an index")
	db.MustExec("UPDATE t2 SET y = 3 WHERE id = 1")
	stays("an update of another table")
	if r, _ := stampOf(t, db, "SELECT x FROM t2 WHERE y = 1"); r.Stamp == 0 {
		t.Fatal("a read of t2 was not stamped")
	}
	stays("a read")
	db.MustExec("UPDATE t1 SET c = 1000 WHERE id = 7")
	moves("an update of an unnamed column that changes an ix_a_c entry")
	db.MustExec("UPDATE t1 SET b = 0 WHERE id = 8")
	moves("an update of a named column")
	db.MustExec("UPDATE t1 SET id = 500 WHERE id = 9")
	moves("a primary-key update")
	db.MustExec("INSERT INTO t1 VALUES (501, 2, 1, 0, 0)")
	moves("an insert")
	db.MustExec("DELETE FROM t1 WHERE id = 501")
	moves("a delete")
	for i := 0; i < 120; i++ { // past the churn rule, 50/5 + 100 writes, statistics drop
		db.MustExec(fmt.Sprintf("UPDATE t1 SET d = %d WHERE id = %d", 200+i, i%40))
	}
	moves("statistics dropped by churn") // and collected again by the read
	db.Analyze()
	moves("statistics collected")
	db.MustExec("CREATE INDEX ix_d ON t1 (d)")
	moves("index DDL")

	clone := db.Clone("clone")
	defer clone.Release()
	if got := clone.Stamp(tmpl); got != res.Stamp {
		t.Fatalf("a clone starts at stamp %d, its source is at %d", got, res.Stamp)
	}
	clone.MustExec("UPDATE t1 SET b = 0 WHERE id = 10")
	db.MustExec("UPDATE t1 SET b = 0 WHERE id = 11")
	if a, b := clone.Stamp(tmpl), db.Stamp(tmpl); a == res.Stamp || b == res.Stamp || a == b {
		t.Fatalf("after one write each, clone and source stamp %d and %d, from %d", a, b, res.Stamp)
	}
}

// FuzzRecordedBaseline is the exactness pin of recorded baselines. data picks
// an index set, a snapshot point and a sequence of operations over t1 and t2:
// inserts, deletes, updates of the primary key, of indexed and of unindexed
// columns, ANALYZE, and reads. Every read is recorded with its Stats and
// stamp; after the snapshot, operations alternate between the source and the
// snapshot, as production moves on while the shadow gate replays DML on its
// clone. Every recorded read whose stamp the snapshot still shows must
// report the very same Stats when run there.
func FuzzRecordedBaseline(f *testing.F) {
	f.Add([]byte{0x01, 8, 6, 14, 22, 30, 4, 12, 7, 15, 23, 31, 6, 14})
	f.Add([]byte{0x1f, 3, 6, 14, 0, 22, 1, 30, 2, 38, 3, 46, 5, 54, 62, 7})
	f.Add([]byte{0x05, 12, 6, 4, 12, 20, 6, 14, 22, 30, 38, 46, 7, 15, 6})
	f.Add([]byte{0x18, 2, 7, 15, 23, 5, 13, 21, 29, 7, 15, 23, 31, 39})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 96 {
			return
		}
		db := newStampDB(t, 24, data[0])
		ops, snapAt := data[2:], int(data[1])%(len(data)-1)
		type sample struct {
			sql   string
			tmpl  sqlparser.Statement
			stats exec.Stats
			stamp uint64
		}
		var samples []sample
		var snap *engine.DB
		nextID := 1000
		for i, b := range ops {
			if i == snapAt {
				snap = db.Clone("snapshot")
				defer snap.Release()
			}
			on := db
			if snap != nil && i%2 == 1 {
				on = snap
			}
			sql := recordedBaselineOp(b, &nextID)
			if sql == "" {
				on.Analyze()
				continue
			}
			res, err := on.Exec(sql)
			if err != nil || res.Stamp == 0 || on != db {
				continue
			}
			tmpl, err := sqlparser.Parse(res.Template)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, sample{sql, tmpl, res.Stats, res.Stamp})
		}
		if snap == nil {
			snap = db.Clone("snapshot")
			defer snap.Release()
		}
		for _, s := range samples {
			if snap.Stamp(s.tmpl) != s.stamp {
				continue
			}
			res, err := snap.Exec(s.sql)
			if err != nil {
				t.Fatalf("%s: recorded, then fails on the snapshot: %v", s.sql, err)
			}
			if res.Stats != s.stats {
				t.Fatalf("%s: recorded %+v, the snapshot at the same stamp reports %+v", s.sql, s.stats, res.Stats)
			}
		}
	})
}

// recordedBaselineOp decodes one operation: the low three bits pick its kind,
// the rest its argument. "" is ANALYZE.
func recordedBaselineOp(b byte, nextID *int) string {
	arg := int(b >> 3)
	switch b & 7 {
	case 0:
		*nextID++
		return fmt.Sprintf("INSERT INTO t1 VALUES (%d, %d, %d, %d, %d)", *nextID, arg%5, arg%3, arg, arg%7)
	case 1:
		return fmt.Sprintf("DELETE FROM t1 WHERE id = %d", arg)
	case 2:
		*nextID++
		return fmt.Sprintf("UPDATE t1 SET id = %d WHERE id = %d", *nextID, arg)
	case 3:
		return fmt.Sprintf("UPDATE t1 SET c = %d WHERE id = %d", 30-arg, arg%24) // in ix_a_c and ix_c
	case 4:
		if arg >= 28 {
			return ""
		}
		return fmt.Sprintf("UPDATE t1 SET d = %d WHERE id = %d", arg, arg) // in no index
	case 5:
		return fmt.Sprintf("UPDATE t2 SET y = %d WHERE id = %d", arg%4, arg%24) // in ix_y_x
	}
	return []string{
		fmt.Sprintf("SELECT id, b FROM t1 WHERE a = %d AND b = %d LIMIT 1", arg%5, arg%3),
		fmt.Sprintf("SELECT id FROM t1 WHERE b > %d ORDER BY id LIMIT 3", arg%3),
		fmt.Sprintf("SELECT t1.id, t2.y FROM t1, t2 WHERE t1.a = t2.x AND t1.b = %d", arg%3),
		fmt.Sprintf("SELECT a, COUNT(*) FROM t1 WHERE b < %d GROUP BY a", arg%4),
		fmt.Sprintf("SELECT id FROM t1 WHERE a > %d LIMIT 2", arg%5),
		fmt.Sprintf("SELECT x FROM t2 WHERE y = %d", arg%4),
		fmt.Sprintf("SELECT * FROM t1 WHERE c < %d", arg),
		fmt.Sprintf("SELECT id FROM t1 WHERE d = %d", arg%7),
	}[arg%8]
}
