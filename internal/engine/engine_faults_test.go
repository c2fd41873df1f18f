package engine

import (
	"errors"
	"testing"

	"aim/internal/catalog"
	"aim/internal/failpoint"
)

// arm activates a fault spec for the duration of the test.
func arm(t *testing.T, spec string) {
	t.Helper()
	fp, err := failpoint.Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Activate(fp)
	t.Cleanup(func() { failpoint.Activate(nil) })
}

// TestCreateIndexesRollsBackOnInjectedFault: when injected faults defeat
// every per-index retry, the batch must fail wholesale and leave neither
// schema entries nor materialized trees behind; once the faults clear, the
// identical batch succeeds from the clean state.
func TestCreateIndexesRollsBackOnInjectedFault(t *testing.T) {
	db := newSalesDB(t)
	defs := []*catalog.Index{
		{Name: "ix_cust_city", Table: "customers", Columns: []string{"city"}, CreatedBy: "aim"},
		{Name: "ix_orders_status", Table: "orders", Columns: []string{"status"}, CreatedBy: "aim"},
	}
	arm(t, "engine.create_index=err(1)")
	if _, err := db.CreateIndexes(defs); err == nil {
		t.Fatal("persistent build faults must fail the batch")
	} else if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("error lost the injected cause: %v", err)
	}
	for _, def := range defs {
		if db.Schema.Index(def.Name) != nil {
			t.Errorf("%s leaked into schema", def.Name)
		}
		if db.Store.Table(def.Table).Index(def.Name) != nil {
			t.Errorf("%s leaked into store", def.Name)
		}
	}
	// Faults stop: the same defs build cleanly — nothing half-applied blocks
	// the retry.
	failpoint.Activate(nil)
	if _, err := db.CreateIndexes(defs); err != nil {
		t.Fatal(err)
	}
	for _, def := range defs {
		tbl := db.Store.Table(def.Table)
		mat := tbl.Index(def.Name)
		if mat == nil {
			t.Fatalf("%s not materialized after retry", def.Name)
		}
		if err := mat.Tree().Validate(); err != nil {
			t.Fatalf("%s tree invalid: %v", def.Name, err)
		}
		if mat.Len() != tbl.RowCount() {
			t.Fatalf("%s has %d entries for %d rows", def.Name, mat.Len(), tbl.RowCount())
		}
	}
}

// TestCreateIndexesRetriesTransientFault: the first two build attempts
// fail, the retry succeeds — the batch lands without caller involvement.
func TestCreateIndexesRetriesTransientFault(t *testing.T) {
	db := newSalesDB(t)
	arm(t, "engine.create_index=err()@1-2")
	defs := []*catalog.Index{{Name: "ix_cust_tier", Table: "customers", Columns: []string{"tier"}, CreatedBy: "aim"}}
	if _, err := db.CreateIndexes(defs); err != nil {
		t.Fatalf("transient fault not retried: %v", err)
	}
	if db.Schema.Index("ix_cust_tier") == nil || db.Store.Table("customers").Index("ix_cust_tier") == nil {
		t.Fatal("index missing after successful retry")
	}
}

// TestDropIndexInjectedFault: a drop fault surfaces the error before any
// mutation, so the index stays fully intact and a later drop succeeds.
func TestDropIndexInjectedFault(t *testing.T) {
	db := newSalesDB(t)
	defs := []*catalog.Index{{Name: "ix_orders_day", Table: "orders", Columns: []string{"day"}, CreatedBy: "aim"}}
	if _, err := db.CreateIndexes(defs); err != nil {
		t.Fatal(err)
	}
	arm(t, "engine.drop_index=err(1)")
	if _, err := db.DropIndex("ix_orders_day"); err == nil {
		t.Fatal("injected drop fault not surfaced")
	}
	mat := db.Store.Table("orders").Index("ix_orders_day")
	if db.Schema.Index("ix_orders_day") == nil || mat == nil {
		t.Fatal("failed drop mutated catalog or store")
	}
	if mat.Len() != db.Store.Table("orders").RowCount() {
		t.Fatal("failed drop left a partial index")
	}
	failpoint.Activate(nil)
	if _, err := db.DropIndex("ix_orders_day"); err != nil {
		t.Fatal(err)
	}
	if db.Schema.Index("ix_orders_day") != nil || db.Store.Table("orders").Index("ix_orders_day") != nil {
		t.Fatal("drop after fault clearance did not land")
	}
}

// builtOn returns a snapshot of db with defs materialized — what the shadow
// gate hands the tuning cycle.
func builtOn(t *testing.T, db *DB, defs []*catalog.Index) *DB {
	t.Helper()
	built := db.Clone("built")
	copies := make([]*catalog.Index, len(defs))
	for i, d := range defs {
		copies[i] = d.Materialized()
	}
	if _, err := built.CreateIndexes(copies); err != nil {
		t.Fatal(err)
	}
	return built
}

// TestAdoptIndexesFailuresRollBack: whatever stops a handoff — the
// create-index failpoint outlasting its retries, a table the snapshot lacks,
// a tree already attached under the name — the batch rolls back to the
// catalog and store it found, as a failed CreateIndexes does, and the same
// handoff succeeds once the cause is gone, DML in between included. How far
// the table moved from the snapshot is not among the causes.
func TestAdoptIndexesFailuresRollBack(t *testing.T) {
	defs := func() []*catalog.Index {
		return []*catalog.Index{
			{Name: "ix_cust_city", Table: "customers", Columns: []string{"city"}, CreatedBy: "aim"},
			{Name: "ix_orders_status", Table: "orders", Columns: []string{"status"}, CreatedBy: "aim"},
		}
	}
	unchanged := func(t *testing.T, db *DB) {
		t.Helper()
		for _, def := range defs() {
			if db.Schema.Index(def.Name) != nil {
				t.Errorf("%s leaked into schema", def.Name)
			}
		}
		if db.Store.Table("customers").Index("ix_cust_city") != nil {
			t.Error("ix_cust_city leaked into store")
		}
	}

	t.Run("failpoint", func(t *testing.T) {
		db := newSalesDB(t)
		built := builtOn(t, db, defs())
		arm(t, "engine.create_index=err(1)")
		if _, err := db.AdoptIndexes(built, defs()); !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("err = %v, want the injected fault", err)
		}
		unchanged(t, db)
		if db.Store.Table("orders").Index("ix_orders_status") != nil {
			t.Error("ix_orders_status leaked into store")
		}
		arm(t, "engine.create_index=err()@1-2")
		db.MustExec("UPDATE orders SET status = 'void' WHERE id = 3")
		if _, err := db.AdoptIndexes(built, defs()); err != nil {
			t.Fatalf("transient fault not retried: %v", err)
		}
		for _, def := range defs() {
			tbl := db.Store.Table(def.Table)
			want, err := tbl.PrepareIndex(&catalog.Index{Name: "fresh", Table: def.Table, Columns: def.Columns}, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.Index(def.Name)
			if got == nil || got.Len() != want.Len() || got.SizeBytes() != want.SizeBytes() || got.Tree().Validate() != nil {
				t.Fatalf("%s after handoff does not match a fresh build", def.Name)
			}
		}
		res, err := db.Exec("SELECT id FROM orders WHERE status = 'void'")
		if err != nil || len(res.Rows) != 1 || len(res.UsedIndexes) == 0 {
			t.Fatalf("adopted index does not serve the row written after the snapshot: %v %v", res, err)
		}
	})
	t.Run("table missing from snapshot", func(t *testing.T) {
		db := newSalesDB(t)
		other := New("other")
		other.MustExec("CREATE TABLE customers (id INT, city TEXT, PRIMARY KEY (id))")
		if _, err := other.CreateIndexes(defs()[:1]); err != nil {
			t.Fatal(err)
		}
		if _, err := db.AdoptIndexes(other, defs()); err == nil {
			t.Fatal("a snapshot without the orders table was adopted from")
		}
		unchanged(t, db)
	})
	t.Run("attach collision", func(t *testing.T) {
		db := newSalesDB(t)
		built := builtOn(t, db, defs())
		if _, err := db.Store.Table("orders").BuildIndex(defs()[1], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := db.AdoptIndexes(built, defs()); err == nil {
			t.Fatal("adopted over a tree already attached")
		}
		unchanged(t, db)
	})
	// A snapshot the whole table has moved away from is no failure: the
	// handoff catches every row up.
	t.Run("stale snapshot", func(t *testing.T) {
		db := newSalesDB(t)
		built := builtOn(t, db, defs())
		db.MustExec("UPDATE orders SET status = 'void' WHERE id >= 0")
		if _, err := db.AdoptIndexes(built, defs()); err != nil {
			t.Fatal(err)
		}
		tbl := db.Store.Table("orders")
		want, err := tbl.PrepareIndex(&catalog.Index{Name: "fresh", Table: "orders", Columns: []string{"status"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Index("ix_orders_status"); got.Len() != want.Len() || got.SizeBytes() != want.SizeBytes() {
			t.Fatalf("rewritten table: %d entries / %d bytes, a fresh build has %d / %d", got.Len(), got.SizeBytes(), want.Len(), want.SizeBytes())
		}
	})
}

// TestAdoptIndexesUntouchedEqualsCreateIndexes: with no statement between
// the snapshot and the handoff, the adopted trees are the trees CreateIndexes
// builds — same leaves, height and entries — and plans read them alike.
func TestAdoptIndexesUntouchedEqualsCreateIndexes(t *testing.T) {
	defs := func() []*catalog.Index {
		return []*catalog.Index{
			{Name: "ix_orders_status", Table: "orders", Columns: []string{"status"}, CreatedBy: "aim"},
			{Name: "ix_orders_day", Table: "orders", Columns: []string{"day"}, CreatedBy: "aim"},
		}
	}
	adopted, created := newSalesDB(t), newSalesDB(t)
	if _, err := adopted.AdoptIndexes(builtOn(t, adopted, defs()), defs()); err != nil {
		t.Fatal(err)
	}
	if _, err := created.CreateIndexes(defs()); err != nil {
		t.Fatal(err)
	}
	for _, def := range defs() {
		a, c := adopted.Store.Table("orders").Index(def.Name).Tree(), created.Store.Table("orders").Index(def.Name).Tree()
		if a.Leaves() != c.Leaves() || a.Height() != c.Height() || a.Len() != c.Len() {
			t.Fatalf("%s: adopted %d leaves / height %d / %d entries, created %d / %d / %d", def.Name,
				a.Leaves(), a.Height(), a.Len(), c.Leaves(), c.Height(), c.Len())
		}
		for ia, ic := a.Seek(nil), c.Seek(nil); ia.Valid() || ic.Valid(); ia.Next() {
			if !ic.Valid() || !ia.Valid() || string(ia.Key()) != string(ic.Key()) {
				t.Fatalf("%s: entry sequences differ", def.Name)
			}
			ic.Next()
		}
	}
	ra, _ := adopted.Exec("SELECT id FROM orders WHERE status = 'paid'")
	rc, _ := created.Exec("SELECT id FROM orders WHERE status = 'paid'")
	sameResults(t, ra.Rows, rc.Rows)
	if ra.Stats != rc.Stats {
		t.Errorf("stats over the adopted index %+v, over the created one %+v", ra.Stats, rc.Stats)
	}
}
