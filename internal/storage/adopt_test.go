package storage

import (
	"bytes"
	"fmt"
	"testing"

	"aim/internal/catalog"
	"aim/internal/sqltypes"
)

// adoptDefs are the candidates the catch-up tests build on the snapshot: a
// single column, a composite ending in a string, and a primary-key prefix
// (PrepareIndex's sorted-input path).
func adoptDefs() []*catalog.Index {
	return []*catalog.Index{
		{Name: "ix_a", Table: "t", Columns: []string{"a"}},
		{Name: "ix_a_b", Table: "t", Columns: []string{"a", "b"}},
		{Name: "ix_id_c", Table: "t", Columns: []string{"id", "c"}},
	}
}

func adoptRow(id, a int64, b string, c int64) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewInt(id), sqltypes.NewInt(a), sqltypes.NewString(b), sqltypes.NewInt(c)}
}

// adoptFixture returns a live store holding rows rows of t(id pk, a, b, c)
// and a snapshot of it with adoptDefs built.
func adoptFixture(t testing.TB, rows int) (live, snap *Store) {
	t.Helper()
	def, err := catalog.NewTable("t", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "a", Type: sqltypes.KindInt},
		{Name: "b", Type: sqltypes.KindString},
		{Name: "c", Type: sqltypes.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	live = NewStore()
	tbl, err := live.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]sqltypes.Row, rows)
	for i := range batch {
		batch[i] = adoptRow(int64(2*i), int64(i*7%31), fmt.Sprintf("w%d", i%5), int64(i))
	}
	if err := tbl.InsertBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	snap = live.Clone()
	for _, d := range adoptDefs() {
		if _, err := snap.Table("t").BuildIndex(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	return live, snap
}

// entries renders an index's key sequence.
func entries(ix *Index) string {
	var b bytes.Buffer
	for it := ix.Tree().Seek(nil); it.Valid(); it.Next() {
		fmt.Fprintf(&b, "%x\n", it.Key())
	}
	return b.String()
}

// FuzzAdoptCatchUp: candidates are built on a snapshot, a fuzz-chosen DML
// tail runs on the live table — single-row inserts, deletes, updates of
// indexed, unindexed and primary-key columns, runs of 80 inserts or deletes
// that split and prune leaves, a whole-table reload — while 1–3 intermediate
// snapshots are taken between its statements, and every index is adopted
// twice: straight from the snapshot, and chained through the intermediate
// snapshots the way engine.CatchUp's rounds go. Every adoption succeeds, and
// each must return exactly what a fresh PrepareIndex on the live table builds
// — key sequence, Len, SizeBytes — with every entry leading to the row it was
// derived from, both tree families passing Validate, and no snapshot's index
// written by the adoptions after it.
func FuzzAdoptCatchUp(f *testing.F) {
	f.Add(uint16(300), []byte{})
	f.Add(uint16(300), []byte{0, 0, 9, 1, 0, 40, 2, 1, 3, 3, 0, 77, 4, 0, 12})
	f.Add(uint16(699), []byte{5, 0, 10, 5, 0, 90, 6, 1, 0, 2, 0, 200})
	f.Add(uint16(40), []byte{2, 0, 2}) // one leaf, rewritten: nothing shared
	f.Add(uint16(200), []byte{7, 0, 0})
	f.Add(uint16(0), []byte{0, 0, 1})
	// rows/700 picks how many intermediate snapshots (1–3) the chain takes.
	f.Add(uint16(700+300), []byte{2, 0, 9, 5, 0, 40, 3, 0, 11, 6, 0, 100})
	f.Add(uint16(1400+250), []byte{7, 0, 0, 2, 0, 8, 7, 0, 0, 4, 0, 30, 1, 0, 60})
	f.Fuzz(func(t *testing.T, rows uint16, ops []byte) {
		n := int(rows % 700)
		live, snap := adoptFixture(t, n)
		tbl, snapTbl := live.Table("t"), snap.Table("t")
		written := map[*Index]string{} // every snapshot's index, as first seen
		for _, ix := range snapTbl.Indexes() {
			written[ix] = entries(ix)
		}

		// The j-th of k intermediate snapshots is taken before statement
		// j*steps/(k+1), so DML falls between each of them when there is some.
		k, steps := 1+int(rows/700)%3, len(ops)/3
		var chain []*Store
		snapAt := func(step int) {
			for len(chain) < k && (len(chain)+1)*steps/(k+1) <= step {
				chain = append(chain, live.Clone())
			}
		}
		pk := func(id int64) []byte { return tbl.PKKey(adoptRow(id, 0, "", 0)) }
		for i := 0; i+2 < len(ops); i += 3 {
			snapAt(i / 3)
			op, arg, v := ops[i]%8, int64(ops[i+1])<<8|int64(ops[i+2]), int64(ops[i+2])
			id := arg % int64(2*n+2)
			old, exists := tbl.GetByPK(pk(id), nil)
			set := func(col int, val sqltypes.Value) {
				if !exists {
					return
				}
				row := old.Clone()
				row[col] = val
				if err := tbl.Update(pk(id), row, nil); err != nil && col != 0 {
					t.Fatal(err)
				}
			}
			switch op {
			case 0:
				tbl.Insert(adoptRow(id, v%31, "n", v), nil) // duplicate ids fail, fine
			case 1:
				tbl.DeleteByPK(pk(id), nil)
			case 2:
				set(1, sqltypes.NewInt(v+100)) // indexed
			case 3:
				set(3, sqltypes.NewInt(v-1)) // in ix_id_c only
			case 4:
				set(0, sqltypes.NewInt(id+1)) // primary key; collisions fail, fine
			case 5:
				for k := int64(0); k < 80; k++ {
					tbl.Insert(adoptRow(2*(id+k)+1, k%31, "run", k), nil)
				}
			case 6:
				for k := int64(0); k < 160; k++ {
					tbl.DeleteByPK(pk(id+k), nil)
				}
			case 7: // reload: same contents, no node kept
				var all []sqltypes.Row
				for it := tbl.Data().Seek(nil); it.Valid(); it.Next() {
					all = append(all, it.Value())
				}
				for _, r := range all {
					tbl.DeleteByPK(tbl.PKKey(r), nil)
				}
				if err := tbl.InsertBatch(all, nil); err != nil {
					t.Fatal(err)
				}
			}
		}

		snapAt(steps)

		adopt := func(def *catalog.Index, to, from *Table) *Index {
			t.Helper()
			got, _, err := to.AdoptIndex(def, from)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		for _, def := range adoptDefs() {
			want, err := tbl.PrepareIndex(def, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The rounds: each intermediate snapshot takes the previous one's
			// tree, caught up, and the live table takes the last.
			from := snapTbl
			for _, s := range chain {
				ix := adopt(def, s.Table("t"), from)
				if err := s.Table("t").AttachIndex(ix); err != nil {
					t.Fatal(err)
				}
				written[ix], from = entries(ix), s.Table("t")
			}
			for _, got := range []*Index{adopt(def, tbl, snapTbl), adopt(def, tbl, from)} {
				if got.Len() != want.Len() || got.SizeBytes() != want.SizeBytes() || got.Len() != tbl.RowCount() {
					t.Fatalf("%s: adopted Len=%d SizeBytes=%d, fresh build Len=%d SizeBytes=%d, rows %d",
						def.Name, got.Len(), got.SizeBytes(), want.Len(), want.SizeBytes(), tbl.RowCount())
				}
				if g, w := entries(got), entries(want); g != w {
					t.Fatalf("%s: adopted entries differ from a fresh build\n--- adopted ---\n%s--- built ---\n%s", def.Name, g, w)
				}
				for it := got.Tree().Seek(nil); it.Valid(); it.Next() {
					row, ok := tbl.GetByPK(oraclePK(t, got, it.Key()), nil)
					if !ok || !bytes.Equal(oracleEntry(got, row), it.Key()) {
						t.Fatalf("%s: entry %x does not lead to its row", def.Name, it.Key())
					}
				}
				if err := got.Tree().Validate(); err != nil {
					t.Fatalf("%s: adopted tree: %v", def.Name, err)
				}
			}
		}
		for ix, was := range written {
			if err := ix.Tree().Validate(); err != nil {
				t.Fatalf("%s: snapshot tree after adoption: %v", ix.Def.Name, err)
			}
			if entries(ix) != was {
				t.Fatalf("%s: an adoption wrote a snapshot's index", ix.Def.Name)
			}
		}
		for _, tr := range []*Table{tbl, snapTbl} {
			if err := tr.Data().Validate(); err != nil {
				t.Fatalf("clustered tree: %v", err)
			}
		}
	})
}

// TestAdoptIndexUntouchedTableIsTheBuiltTree pins the identity the scenario,
// serve and fault goldens rest on: with no write between snapshot and
// adoption the adopted tree is the tree a build on the live table produces —
// same leaves, height and entries — and the catch-up wrote nothing.
func TestAdoptIndexUntouchedTableIsTheBuiltTree(t *testing.T) {
	live, snap := adoptFixture(t, 5000)
	tbl := live.Table("t")
	for _, def := range adoptDefs() {
		got, changed, err := tbl.AdoptIndex(def, snap.Table("t"))
		if err != nil || changed != 0 {
			t.Fatalf("%s: %d rows re-derived, %v", def.Name, changed, err)
		}
		want, err := tbl.PrepareIndex(def, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tree().Leaves() != want.Tree().Leaves() || got.Tree().Height() != want.Tree().Height() ||
			got.SizeBytes() != want.SizeBytes() || entries(got) != entries(want) {
			t.Errorf("%s: adopted tree (leaves %d, height %d) is not the built one (leaves %d, height %d)", def.Name,
				got.Tree().Leaves(), got.Tree().Height(), want.Tree().Leaves(), want.Tree().Height())
		}
		if got.Tree().COWCopies() != 0 {
			t.Errorf("%s: catch-up over an untouched table wrote the tree", def.Name)
		}
		if got.Def != def {
			t.Errorf("%s: adopted index carries the snapshot's definition, not the caller's", def.Name)
		}
	}
}

// TestAdoptIndexRefusals: AdoptIndex refuses only an index the snapshot
// never built. More than a tenth of the table changed still catches up, entry
// for entry a fresh build, and reports the rows it re-derived. Neither
// attaches anything.
func TestAdoptIndexRefusals(t *testing.T) {
	live, snap := adoptFixture(t, 1000)
	tbl, snapTbl := live.Table("t"), snap.Table("t")
	def := adoptDefs()[0]
	for i := int64(0); i < 101; i++ {
		if err := tbl.Update(tbl.PKKey(adoptRow(18*i, 0, "", 0)), adoptRow(18*i, 99, "x", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	ix, changed, err := tbl.AdoptIndex(def, snapTbl)
	if err != nil || changed != 101 {
		t.Fatalf("101 of 1000 rows changed: %d re-derived, %v", changed, err)
	}
	want, err := tbl.PrepareIndex(def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != want.Len() || ix.SizeBytes() != want.SizeBytes() || entries(ix) != entries(want) {
		t.Fatal("101 of 1000 rows changed: the catch-up differs from a fresh build")
	}
	if _, _, err := tbl.AdoptIndex(&catalog.Index{Name: "ix_nowhere", Table: "t", Columns: []string{"c"}}, snapTbl); err == nil {
		t.Fatal("adopted an index missing from the snapshot")
	}
	if len(tbl.Indexes()) != 0 {
		t.Fatalf("an adoption attached something: %d indexes", len(tbl.Indexes()))
	}
}
