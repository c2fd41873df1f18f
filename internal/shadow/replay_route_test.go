package shadow

import (
	"fmt"
	"testing"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/exec"
	"aim/internal/workload"
)

// TestReplayIsTheStatementThatRan holds the gate's replay to the statements
// the window ran, on the shapes the normalizer collapses: one IN template
// executed with a 2- and a 5-member list, and a 3-row INSERT. Every sample's
// baseline, whether taken from the record (the replay it stands for run too)
// or replayed, must report what the execution reported: the rows of the
// whole list, and all three rows written.
func TestReplayIsTheStatementThatRan(t *testing.T) {
	db := engine.New("prod")
	db.MustExec("CREATE TABLE t (id INT, s INT, d INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE log (id INT, v INT, PRIMARY KEY (id))")
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", i, i%250, i%7))
	}
	db.MustExec("CREATE INDEX ix_s ON t (s)")
	db.Analyze()
	snapshot := db.Clone("snapshot") // what the gate's clones hold: the rows before the window's INSERT
	defer snapshot.Release()
	window := []string{
		"SELECT id, d FROM t WHERE s IN (1, 5)",
		"SELECT id, d FROM t WHERE s IN (1, 5, 9, 14, 20)",
		"INSERT INTO log VALUES (1, 10), (2, 20), (3, 30)",
	}
	mon := workload.NewMonitor()
	for _, sql := range window {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Observe(sql, res); err != nil {
			t.Fatal(err)
		}
	}
	in, ins := mon.Get("SELECT id, d FROM t WHERE s IN (?)"), mon.Get("INSERT INTO log VALUES (?, ?)")
	if in == nil || ins == nil || mon.Len() != 2 {
		t.Fatalf("want one IN template and one INSERT template, got %d templates", mon.Len())
	}
	if got := []int64{in.SampleStats[0].RowsSent, in.SampleStats[1].RowsSent, ins.SampleStats[0].RowsWritten}; got[0] != 16 || got[1] != 40 || got[2] != 3 {
		t.Fatalf("recorded rows sent %d and %d, rows written %d; want 16, 40 and 3", got[0], got[1], got[2])
	}

	var verified int
	VerifyRecorded = func(q *workload.QueryStats, recorded exec.Stats, replay func() (*engine.Result, error)) {
		res, err := replay()
		if err != nil || res.Stats != recorded {
			t.Errorf("%s: recorded %+v, replayed %+v (%v)", q.Normalized, recorded, res, err)
		}
		verified++
	}
	t.Cleanup(func() { VerifyRecorded = nil })
	candidate := &catalog.Index{Name: "ix_d", Table: "t", Columns: []string{"d"}}
	for _, moved := range []bool{false, true} {
		baseline, test := snapshot.Clone("baseline"), snapshot.Clone("test")
		if moved {
			baseline.Analyze() // a new statistics epoch: no stamp matches
		}
		if _, err := test.CreateIndex(candidate.Materialized()); err != nil {
			t.Fatal(err)
		}
		var sk skips
		for _, q := range []*workload.QueryStats{in, ins} {
			before, _, n, err := replayQuery(baseline, test, q, 0, &sk)
			if err != nil || n != len(q.SampleSQL) {
				t.Fatalf("%s: %d of %d samples replayed (%v)", q.Normalized, n, len(q.SampleSQL), err)
			}
			want := 0.0
			for _, st := range q.SampleStats {
				want += st.CPUSeconds()
			}
			if want /= float64(n); before != want {
				t.Errorf("%s (stamps moved %v): baseline %.9f s per execution, the window recorded %.9f", q.Normalized, moved, before, want)
			}
		}
		if moved && (sk.recorded != 0 || sk.replayed != 3) || !moved && (sk.recorded != 2 || sk.replayed != 1) {
			t.Errorf("stamps moved %v: %d baselines recorded, %d replayed", moved, sk.recorded, sk.replayed)
		}
		for _, side := range []*engine.DB{baseline, test} {
			if res := side.MustExec("SELECT COUNT(*) FROM log"); res.Rows[0][0].Int() != 3 {
				t.Errorf("the INSERT replay left %v rows in log", res.Rows[0][0])
			}
		}
		baseline.Release()
		test.Release()
	}
	if verified != 2 {
		t.Fatalf("%d recorded baselines checked against their replay, want the 2 IN-list samples", verified)
	}
}
