package tpch

import (
	"testing"

	"aim/internal/workload"
)

func TestBuildAndRunAllQueries(t *testing.T) {
	db, err := Build(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Store.Table("lineitem").RowCount(); got < 1000 {
		t.Fatalf("lineitem rows = %d", got)
	}
	if got := db.Store.Table("region").RowCount(); got != 5 {
		t.Fatalf("region rows = %d", got)
	}
	qs := Queries(7)
	if len(qs) != 22 {
		t.Fatalf("queries = %d", len(qs))
	}
	mon := workload.NewMonitor()
	for i, q := range qs {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("Q%d: %v\n%s", i+1, err, q)
		}
		if err := mon.Observe(q, res); err != nil {
			t.Fatalf("Q%d record: %v", i+1, err)
		}
	}
	if mon.Len() != 22 {
		t.Fatalf("distinct normalized queries = %d", mon.Len())
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Exec("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem")
	rb, _ := b.Exec("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem")
	if ra.Rows[0][0].Int() != rb.Rows[0][0].Int() || ra.Rows[0][1].Float() != rb.Rows[0][1].Float() {
		t.Fatal("generator not deterministic")
	}
	qa, qb := Queries(3), Queries(3)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("query templates not deterministic")
		}
	}
}

func TestScaleControlsSize(t *testing.T) {
	small, err := Build(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(0.06, 1)
	if err != nil {
		t.Fatal(err)
	}
	if big.Store.Table("orders").RowCount() <= small.Store.Table("orders").RowCount() {
		t.Fatal("scale did not grow orders")
	}
}
