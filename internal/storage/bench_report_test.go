package storage

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"aim/internal/btree"
	"aim/internal/catalog"
	"aim/internal/sqltypes"
)

// benchRows is the default fixture size for the storage fast-path
// benchmarks: large enough that tree height dominates, small enough that the
// incremental baselines still finish in a benchtime.
const benchRows = 100_000

var (
	benchMu     sync.Mutex
	benchStates = map[int]*Store{}
)

// benchFixtureSized returns a cached store with rows event rows and two
// materialized secondary indexes, loaded through the sorted batch path.
// Callers must not mutate it directly — take a Clone and mutate that; COW
// keeps the shared fixture frozen.
func benchFixtureSized(tb testing.TB, rows int) *Store {
	tb.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if s, ok := benchStates[rows]; ok {
		return s
	}
	def, err := catalog.NewTable("events", []catalog.Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "user_id", Type: sqltypes.KindInt},
		{Name: "kind", Type: sqltypes.KindString},
		{Name: "day", Type: sqltypes.KindInt},
	}, []string{"id"})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewStore()
	tbl, err := s.CreateTable(def)
	if err != nil {
		tb.Fatal(err)
	}
	kinds := []string{"view", "click", "buy", "hide"}
	batch := make([]sqltypes.Row, rows)
	for i := range batch {
		batch[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64((i * 7) % 9973)),
			sqltypes.NewString(kinds[i%len(kinds)]),
			sqltypes.NewInt(int64(i % 365)),
		}
	}
	if err := tbl.InsertBatch(batch, nil); err != nil {
		tb.Fatal(err)
	}
	for _, ix := range []*catalog.Index{
		{Name: "ix_events_user", Table: "events", Columns: []string{"user_id"}},
		{Name: "ix_events_kind_day", Table: "events", Columns: []string{"kind", "day"}},
	} {
		if _, err := tbl.BuildIndex(ix, nil); err != nil {
			tb.Fatal(err)
		}
	}
	benchStates[rows] = s
	return s
}

func benchFixture(tb testing.TB) *Store { return benchFixtureSized(tb, benchRows) }

// cloneIncremental is the pre-COW deep-copy baseline: rebuild every tree by
// re-inserting each entry with Put, O(n log n) per tree. This is what
// Store.Clone cost before snapshots became O(1) root-pointer copies.
func cloneIncremental(s *Store) *Store {
	out := &Store{tables: map[string]*Table{}, Workers: s.Workers}
	for name, t := range s.tables {
		nt := &Table{Def: t.Def, data: btree.New[sqltypes.Row](), indexes: map[string]*Index{}, bytes: t.bytes}
		for it := t.data.Seek(nil); it.Valid(); it.Next() {
			nt.data.Put(it.Key(), it.Value())
		}
		for iname, ix := range t.indexes {
			nix := &Index{Def: ix.Def, ordinals: ix.ordinals, pkOrds: ix.pkOrds, bytes: ix.bytes, tree: btree.New[struct{}]()}
			for it := ix.tree.Seek(nil); it.Valid(); it.Next() {
				nix.tree.Put(it.Key(), it.Value())
			}
			nt.indexes[iname] = nix
		}
		out.tables[name] = nt
	}
	return out
}

// buildIndexIncremental is the pre-bulk-path BuildIndex baseline, matching
// the seed implementation: per-row entry-key encode, a defensive pk copy
// stored as a boxed value, and one key-copying Put per entry into a growing
// tree.
func buildIndexIncremental(t *Table, def *catalog.Index) *btree.Tree[any] {
	ix := &Index{Def: def, pkOrds: t.Def.PrimaryKey}
	for _, c := range def.Columns {
		ix.ordinals = append(ix.ordinals, t.Def.ColumnIndex(c))
	}
	tree := btree.New[any]()
	for it := t.data.Seek(nil); it.Valid(); it.Next() {
		row := it.Value()
		vals := make([]sqltypes.Value, 0, len(ix.ordinals)+len(ix.pkOrds))
		for _, o := range ix.ordinals {
			vals = append(vals, row[o])
		}
		for _, o := range ix.pkOrds {
			vals = append(vals, row[o])
		}
		pk := append([]byte(nil), it.Key()...)
		tree.Put(sqltypes.EncodeKey(nil, vals...), pk)
		ix.bytes += ix.entrySize(row)
	}
	return tree
}

// eventRow rebuilds the fixture row for id i, for benchmark DML churn.
func eventRow(i int64) sqltypes.Row {
	kinds := []string{"view", "click", "buy", "hide"}
	return sqltypes.Row{
		sqltypes.NewInt(i),
		sqltypes.NewInt((i * 7) % 9973),
		sqltypes.NewString(kinds[i%int64(len(kinds))]),
		sqltypes.NewInt(i % 365),
	}
}

var benchSink interface{}

func BenchmarkStoreClone(b *testing.B) {
	s := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Clone()
	}
}

func BenchmarkStoreCloneIncremental(b *testing.B) {
	s := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = cloneIncremental(s)
	}
}

// BenchmarkStoreSnapshot measures the O(1) snapshot path across row counts;
// the report run gates these timings as row-count-independent.
func BenchmarkStoreSnapshot(b *testing.B) {
	for _, rows := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			s := benchFixtureSized(b, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := s.Clone()
				snap.Release()
				benchSink = snap
			}
		})
	}
}

// BenchmarkCloneUnderDML measures the snapshot cycle a shadow validation
// round performs: take a snapshot of a store whose COW head is under write
// churn, so every clone lands on a freshly-copied path structure.
func BenchmarkCloneUnderDML(b *testing.B) {
	live := benchFixture(b).Clone() // private COW head; the fixture stays frozen
	tbl := live.Table("events")
	r := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 32; k++ {
			id := int64(r.Intn(benchRows))
			if err := tbl.Update(tbl.PKKey(eventRow(id)), eventRow(id), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		snap := live.Clone()
		snap.Release()
		benchSink = snap
	}
}

// maxBuildAllocsPerEntry bounds a bulk index build's allocations per entry:
// a share of the slab, its offsets and the tree nodes. An entry is its key,
// so nothing is allocated per entry (0.036 at 100k rows).
const maxBuildAllocsPerEntry = 0.1

var benchBuildDef = &catalog.Index{Name: "ix_bench_user_day", Table: "events", Columns: []string{"user_id", "day"}}

func BenchmarkBuildIndex(b *testing.B) {
	tbl := benchFixture(b).Table("events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := tbl.PrepareIndex(benchBuildDef, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ix
	}
}

// adoptChanged are the catch-up sizes BenchmarkAdoptIndex and the report
// measure: an untouched table, a tuning cycle's worth of concurrent DML, and
// a tenth of the table.
var adoptChanged = []int{0, 100, 10_000}

// benchAdoptIndex measures the handoff of benchBuildDef from a snapshot that
// built it to a live table on which changed rows, spread evenly over the key
// space, had their indexed column updated since — what the write gate is
// held for in place of BenchmarkBuildIndex. AdoptIndex writes neither side,
// so one fixture serves every iteration.
func benchAdoptIndex(b *testing.B, changed int) {
	live := benchFixture(b).Clone()
	snap := live.Clone()
	if _, err := snap.Table("events").BuildIndex(benchBuildDef, nil); err != nil {
		b.Fatal(err)
	}
	tbl := live.Table("events")
	for k := 0; k < changed; k++ {
		row := eventRow(int64(k * (benchRows / changed)))
		row[1] = sqltypes.NewInt(row[1].Int() + 1)
		if err := tbl.Update(tbl.PKKey(row), row, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, _, err := tbl.AdoptIndex(benchBuildDef, snap.Table("events"))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ix
	}
}

func BenchmarkAdoptIndex(b *testing.B) {
	for _, changed := range adoptChanged {
		b.Run(fmt.Sprintf("changed=%d", changed), func(b *testing.B) { benchAdoptIndex(b, changed) })
	}
}

// BenchmarkClusteredGet measures one primary-key lookup at a random key of
// the fixture: the root-to-leaf descent and leaf search a clustered fetch
// pays per row.
func BenchmarkClusteredGet(b *testing.B) {
	tbl := benchFixture(b).Table("events")
	r := rand.New(rand.NewSource(3))
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = tbl.PKKey(eventRow(int64(r.Intn(benchRows))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.GetByPK(keys[i%len(keys)], nil); !ok {
			b.Fatal("fixture row missing")
		}
	}
}

// BenchmarkIndexFetch measures one equality range on ix_events_kind_day (a
// kind and a day: about 68 entries of the fixture) plus the clustered fetch
// of every row it names — an index lookup as the executor runs it.
func BenchmarkIndexFetch(b *testing.B) {
	tbl := benchFixture(b).Table("events")
	ix := tbl.Index("ix_events_kind_day")
	kinds := []string{"view", "click", "buy", "hide"}
	prefixes := make([][]byte, 64)
	for i := range prefixes {
		prefixes[i] = sqltypes.EncodeKey(nil, sqltypes.NewString(kinds[i%len(kinds)]), sqltypes.NewInt(int64(i*37%365)))
	}
	var it btree.Iter[struct{}]
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := prefixes[i%len(prefixes)]
		for ix.Tree().SeekRangeInto(&it, p, p, true); it.Valid(); it.Next() {
			pk, err := ix.PK(it.Key())
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := tbl.GetByPK(pk, nil); !ok {
				b.Fatal("index entry names no row")
			}
			rows++
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

func BenchmarkBuildIndexIncremental(b *testing.B) {
	tbl := benchFixture(b).Table("events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = buildIndexIncremental(tbl, benchBuildDef)
	}
}

// storeFootprint sums the btree footprints of every table and index tree.
func storeFootprint(s *Store) btree.Footprint {
	var f btree.Footprint
	for _, t := range s.tables {
		df := t.data.Footprint()
		f.Nodes += df.Nodes
		f.Bytes += df.Bytes
		for _, ix := range t.indexes {
			xf := ix.tree.Footprint()
			f.Nodes += xf.Nodes
			f.Bytes += xf.Bytes
		}
	}
	return f
}

// storeShared sums the structurally shared footprint between matching trees
// of a clone pair.
func storeShared(live, snap *Store) btree.Footprint {
	var f btree.Footprint
	for name, t := range live.tables {
		st := snap.tables[name]
		sf := t.data.SharedFootprint(st.data)
		f.Nodes += sf.Nodes
		f.Bytes += sf.Bytes
		for iname, ix := range t.indexes {
			xf := ix.tree.SharedFootprint(st.indexes[iname].tree)
			f.Nodes += xf.Nodes
			f.Bytes += xf.Bytes
		}
	}
	return f
}

// TestBenchStorageReport runs the storage fast-path benchmarks against their
// baselines and records the results in BENCH_storage.json at the repo root:
// snapshot ns/op across 10k/100k/1M rows (gated row-count-independent),
// COW clone vs the old deep-copy clone (gated >= 100x at 100k rows), index
// build vs incremental (gated >= 3x), a random clustered lookup and an
// index equality range with its clustered fetches (recorded), adopting a snapshot-built index vs
// building it (AdoptIndex at 0 / 100 / 10 000 changed rows; adopt_vs_build is
// the 100-row case, gated >= 10x), the build's allocations per entry (gated
// <= maxBuildAllocsPerEntry), and the memory amplification of a
// snapshot after 1000 DML ops (bytes shared vs copied). Wall-clock
// sensitive, so it is env-gated out of plain `go test ./...`;
// `make benchstorage` invokes it.
func TestBenchStorageReport(t *testing.T) {
	if os.Getenv("AIM_BENCH_STORAGE") == "" {
		t.Skip("set AIM_BENCH_STORAGE=1 to run (invoked by make benchstorage)")
	}

	type entry struct {
		NsPerOp     int64 `json:"ns_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
		Iterations  int   `json:"iterations"`
	}
	run := func(f func(*testing.B)) entry {
		r := testing.Benchmark(f)
		return entry{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), Iterations: r.N}
	}
	bench := map[string]entry{
		"StoreClone":            run(BenchmarkStoreClone),
		"StoreCloneIncremental": run(BenchmarkStoreCloneIncremental),
		"CloneUnderDML":         run(BenchmarkCloneUnderDML),
		"BuildIndex":            run(BenchmarkBuildIndex),
		"BuildIndexIncremental": run(BenchmarkBuildIndexIncremental),
		"ClusteredGet":          run(BenchmarkClusteredGet),
		"IndexFetch":            run(BenchmarkIndexFetch),
	}
	for _, changed := range adoptChanged {
		bench[fmt.Sprintf("AdoptIndex/changed=%d", changed)] = run(func(b *testing.B) { benchAdoptIndex(b, changed) })
	}

	// Snapshot latency across row counts: O(1) means flat.
	snapshotNs := map[string]int64{}
	var minNs, maxNs int64
	for _, rows := range []int{10_000, 100_000, 1_000_000} {
		rows := rows
		e := run(func(b *testing.B) {
			s := benchFixtureSized(b, rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := s.Clone()
				snap.Release()
				benchSink = snap
			}
		})
		snapshotNs[fmt.Sprintf("%d", rows)] = e.NsPerOp
		if minNs == 0 || e.NsPerOp < minNs {
			minNs = e.NsPerOp
		}
		if e.NsPerOp > maxNs {
			maxNs = e.NsPerOp
		}
	}
	flatness := float64(maxNs) / float64(minNs)
	t.Logf("snapshot ns/op by rows: %v (flatness %.2fx)", snapshotNs, flatness)
	if flatness > 10 {
		t.Errorf("snapshot latency varies %.2fx across 10k..1M rows, want row-count-independent (<= 10x)", flatness)
	}

	// Memory amplification: snapshot a 100k store, run 1000 DML ops on the
	// live head, and report how much of the store is still shared.
	const dmlOps = 1000
	live := benchFixture(t).Clone()
	snap := live.Clone()
	tbl := live.Table("events")
	r := rand.New(rand.NewSource(21))
	for i := 0; i < dmlOps; i++ {
		id := int64(r.Intn(benchRows))
		if err := tbl.Update(tbl.PKKey(eventRow(id)), eventRow(id), nil); err != nil {
			t.Fatal(err)
		}
	}
	total := storeFootprint(live)
	shared := storeShared(live, snap)
	snap.Release()
	live.Release()

	ratio := func(base, fast string) float64 {
		return float64(bench[base].NsPerOp) / float64(bench[fast].NsPerOp)
	}
	report := struct {
		Rows           int                `json:"rows"`
		GoVersion      string             `json:"go_version"`
		GOMAXPROCS     int                `json:"gomaxprocs"`
		Benchmarks     map[string]entry   `json:"benchmarks"`
		SnapshotNsRows map[string]int64   `json:"snapshot_ns_by_rows"`
		CloneFlatness  float64            `json:"clone_flatness_ratio"`
		Speedup        map[string]float64 `json:"speedup"`
		Memory         struct {
			DMLOps        int     `json:"dml_ops"`
			LiveBytes     int64   `json:"live_bytes"`
			SharedBytes   int64   `json:"shared_bytes"`
			CopiedBytes   int64   `json:"copied_bytes"`
			SharedPercent float64 `json:"shared_percent"`
		} `json:"memory_amplification"`
	}{
		Rows:           benchRows,
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Benchmarks:     bench,
		SnapshotNsRows: snapshotNs,
		CloneFlatness:  flatness,
		Speedup: map[string]float64{
			"clone":          ratio("StoreCloneIncremental", "StoreClone"),
			"build_index":    ratio("BuildIndexIncremental", "BuildIndex"),
			"adopt_vs_build": ratio("BuildIndex", "AdoptIndex/changed=100"),
		},
	}
	report.Memory.DMLOps = dmlOps
	report.Memory.LiveBytes = total.Bytes
	report.Memory.SharedBytes = shared.Bytes
	report.Memory.CopiedBytes = total.Bytes - shared.Bytes
	report.Memory.SharedPercent = 100 * float64(shared.Bytes) / float64(total.Bytes)

	t.Logf("clone speedup: %.0fx, build_index speedup: %.2fx, adopt_vs_build: %.0fx",
		report.Speedup["clone"], report.Speedup["build_index"], report.Speedup["adopt_vs_build"])
	t.Logf("memory after %d DML ops: %.1f%% shared (%d of %d bytes)",
		dmlOps, report.Memory.SharedPercent, shared.Bytes, total.Bytes)
	if report.Speedup["clone"] < 100 {
		t.Errorf("COW clone only %.0fx over the deep-copy baseline at %d rows, want >= 100x", report.Speedup["clone"], benchRows)
	}
	if report.Speedup["build_index"] < 3 {
		t.Errorf("build_index fast path only %.2fx over the incremental baseline, want >= 3x", report.Speedup["build_index"])
	}
	if report.Speedup["adopt_vs_build"] < 10 {
		t.Errorf("adopting with 100 changed rows only %.2fx faster than building, want >= 10x — the catch-up is doing build-sized work", report.Speedup["adopt_vs_build"])
	}
	if per := float64(bench["BuildIndex"].AllocsPerOp) / benchRows; per > maxBuildAllocsPerEntry {
		t.Errorf("BuildIndex makes %.3f allocations per entry, want <= %.1f", per, maxBuildAllocsPerEntry)
	}
	if report.Memory.SharedPercent < 50 {
		t.Errorf("only %.1f%% of the store shared after %d DML ops — structural sharing is not holding", report.Memory.SharedPercent, dmlOps)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_storage.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote BENCH_storage.json: clone %.0fx, flatness %.2fx, shared %.1f%%\n",
		report.Speedup["clone"], flatness, report.Memory.SharedPercent)
}
