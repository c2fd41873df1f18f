package products

import (
	"math/rand"
	"testing"

	"aim/internal/catalog"
	"aim/internal/workload"
)

// smallSpec is a fast test-sized product.
func smallSpec() Spec {
	return Spec{Name: "Product T", Tables: 6, JoinQueries: 8, Type: Balanced, TargetDBA: 20, RowsPerTable: 200, Seed: 7}
}

func TestBuildProduct(t *testing.T) {
	p, err := Build(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.DB.Schema.Tables()); got != 6 {
		t.Fatalf("tables = %d", got)
	}
	if p.DB.Store.Table("t000").RowCount() != 200 {
		t.Fatal("rows missing")
	}
	if len(p.DBAIndexes) == 0 {
		t.Fatal("no DBA indexes derived")
	}
	// DBA indexes must be valid for the schema.
	if err := p.ApplyDBAIndexes(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.DB.Schema.Indexes()); got != len(p.DBAIndexes) {
		t.Fatalf("materialized %d of %d", got, len(p.DBAIndexes))
	}
	p.DropAllSecondaryIndexes()
	if got := len(p.DB.Schema.Indexes()); got != 0 {
		t.Fatalf("%d indexes survived drop", got)
	}
}

func TestSampledWorkloadExecutes(t *testing.T) {
	p, err := Build(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	mon := workload.NewMonitor()
	reads, writes := 0, 0
	for i := 0; i < 300; i++ {
		sql := p.SampleStatement(r)
		res, err := p.DB.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if err := mon.Observe(sql, res); err != nil {
			t.Fatal(err)
		}
		if res.Columns == nil && res.Rows == nil {
			writes++
		} else {
			reads++
		}
	}
	if mon.Len() == 0 {
		t.Fatal("no normalized queries")
	}
}

func TestWorkloadMixMatchesType(t *testing.T) {
	for _, ty := range []WorkloadType{WriteHeavy, ReadHeavy, Balanced} {
		spec := smallSpec()
		spec.Type = ty
		p, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(2))
		writes := 0
		const n = 2000
		for i := 0; i < n; i++ {
			sql := p.SampleStatement(r)
			if sql[0] == 'I' || sql[0] == 'U' || sql[0] == 'D' {
				writes++
			}
		}
		frac := float64(writes) / n
		want := ty.writeFraction()
		if frac < want-0.05 || frac > want+0.05 {
			t.Errorf("%v: write fraction %.2f, want ~%.2f", ty, frac, want)
		}
	}
}

func TestCatalogSpecsMatchTable2(t *testing.T) {
	if len(Catalog) != 7 {
		t.Fatalf("products = %d", len(Catalog))
	}
	wantTables := map[string]int{
		"Product A": 147, "Product B": 184, "Product C": 42, "Product D": 16,
		"Product E": 51, "Product F": 5, "Product G": 79,
	}
	wantJoins := map[string]int{
		"Product A": 67, "Product B": 733, "Product C": 25, "Product D": 18,
		"Product E": 41, "Product F": 10, "Product G": 386,
	}
	for _, s := range Catalog {
		if s.Tables != wantTables[s.Name] {
			t.Errorf("%s tables = %d", s.Name, s.Tables)
		}
		if s.JoinQueries != wantJoins[s.Name] {
			t.Errorf("%s joins = %d", s.Name, s.JoinQueries)
		}
	}
	if _, ok := SpecByName("C"); !ok {
		t.Error("SpecByName by letter failed")
	}
	if _, ok := SpecByName("Product F"); !ok {
		t.Error("SpecByName by full name failed")
	}
	if _, ok := SpecByName("Z"); ok {
		t.Error("unknown product found")
	}
}

func TestJaccard(t *testing.T) {
	mk := func(cols ...string) *catalog.Index {
		return &catalog.Index{Table: "t", Columns: cols}
	}
	a := []*catalog.Index{mk("a"), mk("b")}
	b := []*catalog.Index{mk("a"), mk("c")}
	if got := Jaccard(a, b); got != 1.0/3 {
		t.Errorf("jaccard = %v", got)
	}
	if Jaccard(nil, nil) != 1 {
		t.Error("empty sets should be identical")
	}
	if Jaccard(a, a) != 1 {
		t.Error("self similarity")
	}
	if Jaccard(a, nil) != 0 {
		t.Error("disjoint")
	}
}
