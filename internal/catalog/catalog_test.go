package catalog

import (
	"testing"

	"aim/internal/sqltypes"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("users", []Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "name", Type: sqltypes.KindString},
		{Name: "age", Type: sqltypes.KindInt},
		{Name: "city", Type: sqltypes.KindString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", []Column{{Name: "a"}, {Name: "A"}}, []string{"a"}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}}, []string{"b"}); err == nil {
		t.Error("missing pk column accepted")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}}, nil); err == nil {
		t.Error("empty pk accepted")
	}
}

func TestColumnLookup(t *testing.T) {
	tbl := testTable(t)
	if tbl.ColumnIndex("AGE") != 2 {
		t.Error("case-insensitive lookup failed")
	}
	if tbl.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
	if got := tbl.PrimaryKeyNames(); len(got) != 1 || got[0] != "id" {
		t.Errorf("pk names = %v", got)
	}
	if got := tbl.ColumnNames(); len(got) != 4 || got[3] != "city" {
		t.Errorf("column names = %v", got)
	}
}

func TestSchemaAddAndLookup(t *testing.T) {
	s := NewSchema()
	tbl := testTable(t)
	if err := s.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(tbl); err == nil {
		t.Error("duplicate table accepted")
	}
	if s.Table("USERS") != tbl {
		t.Error("case-insensitive table lookup failed")
	}
	if s.Table("missing") != nil {
		t.Error("missing table should be nil")
	}
}

func TestIndexValidation(t *testing.T) {
	s := NewSchema()
	if err := s.AddTable(testTable(t)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ix   *Index
		ok   bool
		name string
	}{
		{&Index{Name: "i1", Table: "users", Columns: []string{"age"}}, true, "valid"},
		{&Index{Name: "i2", Table: "nosuch", Columns: []string{"a"}}, false, "unknown table"},
		{&Index{Name: "i3", Table: "users", Columns: nil}, false, "no columns"},
		{&Index{Name: "i4", Table: "users", Columns: []string{"zzz"}}, false, "unknown column"},
		{&Index{Name: "i5", Table: "users", Columns: []string{"age", "AGE"}}, false, "repeated column"},
		{&Index{Name: "I1", Table: "users", Columns: []string{"city"}}, false, "duplicate name"},
	}
	for _, c := range cases {
		err := s.AddIndex(c.ix)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

func TestIndexCoversAndKey(t *testing.T) {
	tbl := testTable(t)
	ix := &Index{Name: "i", Table: "users", Columns: []string{"city", "age"}}
	if !ix.Covers(tbl, []string{"city", "age", "id"}) {
		t.Error("index + pk should cover")
	}
	if ix.Covers(tbl, []string{"name"}) {
		t.Error("name is not covered")
	}
	if ix.Key() != "users(city,age)" {
		t.Errorf("Key = %q", ix.Key())
	}
	other := &Index{Name: "different_name", Table: "USERS", Columns: []string{"CITY", "age"}}
	if !ix.Equal(other) {
		t.Error("Equal should ignore names and case")
	}
	if ix.Equal(&Index{Table: "users", Columns: []string{"age", "city"}}) {
		t.Error("column order must matter")
	}
}

func TestSchemaIndexManagement(t *testing.T) {
	s := NewSchema()
	if err := s.AddTable(testTable(t)); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddIndex(&Index{Name: "b_idx", Table: "users", Columns: []string{"age"}}))
	must(s.AddIndex(&Index{Name: "a_idx", Table: "users", Columns: []string{"city", "age"}}))
	got := s.Indexes()
	if len(got) != 2 || got[0].Name != "a_idx" {
		t.Errorf("Indexes() = %v", got)
	}
	if s.FindIndexByColumns("users", []string{"city", "age"}) == nil {
		t.Error("FindIndexByColumns missed")
	}
	if s.FindIndexByColumns("users", []string{"age", "city"}) != nil {
		t.Error("FindIndexByColumns order should matter")
	}
	if !s.DropIndex("B_IDX") {
		t.Error("DropIndex failed")
	}
	if s.DropIndex("b_idx") {
		t.Error("double drop succeeded")
	}
	if len(s.Indexes()) != 1 {
		t.Error("index not removed")
	}
}

func TestSchemaCloneIsolation(t *testing.T) {
	s := NewSchema()
	if err := s.AddTable(testTable(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddIndex(&Index{Name: "i", Table: "users", Columns: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.AddIndex(&Index{Name: "j", Table: "users", Columns: []string{"city"}}); err != nil {
		t.Fatal(err)
	}
	if s.Index("j") != nil {
		t.Error("clone leaked into original")
	}
	c.Index("i").Columns[0] = "city"
	if s.Index("i").Columns[0] != "age" {
		t.Error("clone shares column slices")
	}
}

// TestMaterializedIsAnIndependentNonHypotheticalCopy: the def handed to
// CreateIndexes must not alias the recommendation's, which stays
// hypothetical.
func TestMaterializedIsAnIndependentNonHypotheticalCopy(t *testing.T) {
	hyp := &Index{Name: "i", Table: "users", Columns: []string{"age", "city"}, Hypothetical: true, CreatedBy: "aim"}
	def := hyp.Materialized()
	if def.Hypothetical || !def.Equal(hyp) || def.Name != "i" || def.CreatedBy != "aim" {
		t.Fatalf("materialized def = %+v", def)
	}
	def.Columns[0] = "name"
	if !hyp.Hypothetical || hyp.Columns[0] != "age" {
		t.Errorf("original changed through the copy: %+v", hyp)
	}
}
