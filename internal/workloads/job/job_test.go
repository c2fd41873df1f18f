package job

import (
	"testing"

	"aim/internal/workload"
)

func TestBuildAndRunAllQueries(t *testing.T) {
	db, err := Build(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if db.Store.Table("cast_info").RowCount() < 500 {
		t.Fatalf("cast_info rows = %d", db.Store.Table("cast_info").RowCount())
	}
	qs := Queries(3)
	if len(qs) != 12 {
		t.Fatalf("queries = %d", len(qs))
	}
	mon := workload.NewMonitor()
	for i, q := range qs {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("JOB q%d: %v\n%s", i+1, err, q)
		}
		mon.Observe(q, res)
	}
	if mon.Len() != 12 {
		t.Fatalf("normalized = %d", mon.Len())
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Build(0.02, 5)
	b, _ := Build(0.02, 5)
	ra, _ := a.Exec("SELECT COUNT(*), SUM(info_val) FROM movie_info")
	rb, _ := b.Exec("SELECT COUNT(*), SUM(info_val) FROM movie_info")
	if ra.Rows[0][1].Float() != rb.Rows[0][1].Float() {
		t.Fatal("not deterministic")
	}
}
