// Package storage implements the row store: clustered primary-key tables
// backed by B+trees, secondary indexes maintained on every DML, and
// page/row-level accounting used by the cost model and workload monitor.
//
// A secondary index entry is its key, enc(index columns..., primary key
// columns...), exactly like an InnoDB secondary-index record: the primary-key
// suffix keeps duplicate index-column values unique and is the back-lookup
// into the clustered tree (Index.PK). The entry stores no value.
package storage

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"aim/internal/btree"
	"aim/internal/catalog"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/sqltypes"
)

// metricsSet bundles the storage layer's observability handles so they swap
// atomically as a unit (same pattern as internal/pool).
type metricsSet struct {
	bulkRows     *obs.Counter   // entries loaded through a bulk path
	clones       *obs.Counter   // store snapshots taken
	snapshots    *obs.Gauge     // snapshot handles taken minus released
	sharedBytes  *obs.Gauge     // store bytes structurally shared at the last snapshot
	cloneSeconds *obs.Histogram // wall clock per Store.Clone
	buildSeconds *obs.Histogram // wall clock per index build
	leafFill     *obs.Histogram // leaf fill % of bulk-built trees
	adoptRows    *obs.Histogram // rows re-derived per adopted index
	adoptSeconds *obs.Histogram // wall clock per AdoptIndex
}

// instr holds the active metrics set; nil means instrumentation is off.
var instr atomic.Pointer[metricsSet]

// Instrument attaches storage metrics to the registry (nil detaches):
// storage.{bulk_rows,clones} counters, the
// storage.{snapshots_live,shared_bytes} gauges, the monotone
// storage.cow_node_copies gauge (fed by the btree writer's path-copy
// counter, sampled at scrape time), and histograms storage.{clone_seconds,
// index_build_seconds,bulk_leaf_fill,adopt_catchup_rows,adopt_seconds}.
// Metrics never influence behaviour — clones and builds are byte-identical
// with instrumentation on or off.
func Instrument(r *obs.Registry) {
	if r == nil {
		instr.Store(nil)
		return
	}
	r.GaugeFunc("storage.cow_node_copies", btree.COWNodeCopies)
	instr.Store(&metricsSet{
		bulkRows:     r.Counter("storage.bulk_rows"),
		clones:       r.Counter("storage.clones"),
		snapshots:    r.Gauge("storage.snapshots_live"),
		sharedBytes:  r.Gauge("storage.shared_bytes"),
		cloneSeconds: r.Histogram("storage.clone_seconds"),
		buildSeconds: r.Histogram("storage.index_build_seconds"),
		leafFill:     r.Histogram("storage.bulk_leaf_fill"),
		adoptRows:    r.Histogram("storage.adopt_catchup_rows"),
		adoptSeconds: r.Histogram("storage.adopt_seconds"),
	})
}

// Metrics accumulates physical work done by storage operations. The
// executor aggregates these into per-query execution statistics.
type Metrics struct {
	RowsRead    int64 // rows fetched from base tables or index entries visited
	PageReads   int64 // B+tree pages touched (descents + leaves walked)
	IndexWrites int64 // secondary index entry mutations
	RowWrites   int64 // base row mutations
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.RowsRead += other.RowsRead
	m.PageReads += other.PageReads
	m.IndexWrites += other.IndexWrites
	m.RowWrites += other.RowWrites
}

// Index is a materialized secondary index.
type Index struct {
	Def      *catalog.Index
	tree     *btree.Tree[struct{}]
	ordinals []int // table column ordinals of the key columns
	pkOrds   []int
	bytes    int64
}

// Tree exposes the underlying B+tree for scans.
func (ix *Index) Tree() *btree.Tree[struct{}] { return ix.tree }

// PK returns the clustered key an entry points at, its key's suffix.
func (ix *Index) PK(entry []byte) ([]byte, error) {
	return sqltypes.SkipKey(entry, len(ix.ordinals))
}

// Ordinals returns the table column ordinals of the index key columns.
func (ix *Index) Ordinals() []int { return ix.ordinals }

// SizeBytes returns the approximate materialized size of the index.
func (ix *Index) SizeBytes() int64 { return ix.bytes }

// Len returns the number of entries.
func (ix *Index) Len() int { return ix.tree.Len() }

// keyBuf sizes the stack buffers the write paths encode keys into: the trees
// copy what they keep, so a key that fits never reaches the heap.
const keyBuf = 64

// appendEntry appends to dst the index entry key for a row stored under the
// clustered key pk (encoding is concatenative per value).
func (ix *Index) appendEntry(dst []byte, row sqltypes.Row, pk []byte) []byte {
	for _, o := range ix.ordinals {
		dst = sqltypes.EncodeKey(dst, row[o])
	}
	return append(dst, pk...)
}

// entrySize is the advisor's size model of an entry (SizeBytes,
// storage.index_mb), not its heap: the entry stores no value, but the "value
// payload" term stays so modelled sizes, and so recommendations, are
// unchanged. Measured heap on the serving fixture: 89.6 B per entry with a
// boxed pk value, 47.6 B without, 40.9 B in key blocks.
func (ix *Index) entrySize(row sqltypes.Row) int64 {
	n := 0
	for _, o := range ix.ordinals {
		n += row[o].StorageSize()
	}
	for _, o := range ix.pkOrds {
		n += row[o].StorageSize() * 2 // key suffix + value payload
	}
	return int64(n) + 16 // per-entry overhead
}

// Table is a clustered table plus its materialized secondary indexes.
type Table struct {
	Def     *catalog.Table
	data    *btree.Tree[sqltypes.Row] // pk key -> row
	indexes map[string]*Index
	bytes   int64
	// shape is the catalog.Tick of the last change to which rows exist, in
	// which order, or to any index entry: an insert, a delete, an update of
	// the primary key or of an indexed column, an index attached or dropped.
	// cols holds, per column, the Tick of the last update that changed its
	// value. Stamp reads them; a Clone starts with its source's.
	shape uint64
	cols  []uint64
}

// NewTable creates an empty table for the definition.
func NewTable(def *catalog.Table) *Table {
	return &Table{Def: def, data: btree.New[sqltypes.Row](), indexes: map[string]*Index{}, cols: make([]uint64, len(def.Columns))}
}

// Stamp is the largest of the table's shape counter and the value counters
// of the columns at ords: it moves on exactly when the table changes in a way
// a read of only those columns could see.
func (t *Table) Stamp(ords []int) uint64 {
	m := t.shape
	for _, o := range ords {
		m = max(m, t.cols[o])
	}
	return m
}

// Data exposes the clustered tree for scans.
func (t *Table) Data() *btree.Tree[sqltypes.Row] { return t.data }

// RowCount returns the number of rows.
func (t *Table) RowCount() int { return t.data.Len() }

// DataSize returns the approximate clustered data size in bytes.
func (t *Table) DataSize() int64 { return t.bytes }

// Indexes returns the materialized secondary indexes keyed by lower-cased
// index name.
func (t *Table) Indexes() map[string]*Index { return t.indexes }

// Index returns the named materialized index, or nil.
func (t *Table) Index(name string) *Index { return t.indexes[strings.ToLower(name)] }

// PKKey builds the clustered key for a full row.
func (t *Table) PKKey(row sqltypes.Row) []byte { return t.appendPK(nil, row) }

// appendPK appends row's clustered key to dst.
func (t *Table) appendPK(dst []byte, row sqltypes.Row) []byte {
	for _, o := range t.Def.PrimaryKey {
		dst = sqltypes.EncodeKey(dst, row[o])
	}
	return dst
}

// Insert adds a row, maintaining every secondary index. It fails on
// duplicate primary keys or column-count mismatch.
func (t *Table) Insert(row sqltypes.Row, m *Metrics) error {
	if len(row) != len(t.Def.Columns) {
		return fmt.Errorf("storage: table %s expects %d columns, got %d", t.Def.Name, len(t.Def.Columns), len(row))
	}
	var kb [keyBuf]byte
	if err := t.insertStored(t.appendPK(kb[:0], row), row.Clone(), m); err != nil {
		return err
	}
	t.shape = catalog.Tick()
	return nil
}

// InsertBatch adds rows in one call. When the batch arrives in strictly
// increasing primary-key order and appends beyond the table's current
// maximum key (the common case: generators and ETL loads emit PK order),
// the clustered tree takes the O(n) bulk-append path and secondary index
// entries are built sort-then-bulk per index; otherwise it falls back to
// per-row Insert. Duplicate keys fail the batch before any mutation on the
// fast path, and at the offending row on the fallback path.
func (t *Table) InsertBatch(rows []sqltypes.Row, m *Metrics) error {
	if len(rows) == 0 {
		return nil
	}
	for _, row := range rows {
		if len(row) != len(t.Def.Columns) {
			return fmt.Errorf("storage: table %s expects %d columns, got %d", t.Def.Name, len(t.Def.Columns), len(row))
		}
	}
	t.shape = catalog.Tick()
	// The clustered keys go back to back into one slab the new leaves point
	// into; AppendBulk rejects, without a change, a batch that is out of
	// order or does not sort after every stored key.
	stored := make([]sqltypes.Row, len(rows))
	size := 0
	for _, row := range rows {
		for _, o := range t.Def.PrimaryKey {
			size += sqltypes.EncodedLen(row[o])
		}
	}
	keys := btree.Slab{Buf: make([]byte, 0, size), Offs: make([]int, 1, len(rows)+1)}
	var batchBytes int64
	for i, row := range rows {
		stored[i] = row.Clone()
		keys.Buf = t.appendPK(keys.Buf, stored[i])
		keys.Offs = append(keys.Offs, len(keys.Buf))
		batchBytes += int64(stored[i].Size()) + 16
	}
	if !t.data.AppendBulk(keys, nil, stored) {
		for i, row := range stored {
			if err := t.insertStored(keys.Key(i), row, m); err != nil {
				return err
			}
		}
		return nil
	}
	t.bytes += batchBytes
	if m != nil {
		m.RowWrites += int64(len(rows))
		// Bulk appends write whole pages, not per-row root-to-leaf descents.
		m.PageReads += int64(len(rows)+1)/int64(bulkPageEntries) + 1
	}
	batch := func(fn func(pk []byte, row sqltypes.Row)) {
		for i, row := range stored {
			fn(keys.Key(i), row)
		}
	}
	for _, ix := range t.indexes {
		entries, order := ix.bulkEntries(batch)
		if !ix.tree.AppendBulk(entries, order, nil) {
			for j := range entries.Len() {
				k := j
				if order != nil {
					k = int(order[j])
				}
				ix.tree.Put(entries.Key(k), struct{}{})
			}
		}
		if m != nil {
			n := int64(entries.Len())
			m.IndexWrites += n
			m.PageReads += (n+1)/int64(bulkPageEntries) + 1
		}
	}
	if ms := instr.Load(); ms != nil {
		ms.bulkRows.Add(int64(len(rows)))
		ms.leafFill.Observe(t.data.FillPercent())
	}
	return nil
}

// bulkPageEntries approximates entries per written page for bulk-append
// I/O accounting (≈90% of the btree degree).
const bulkPageEntries = 57

// bulkEntries returns, with their key order (Slab.Order) for BulkLoad or
// AppendBulk, the entries of the rows each hands over with their clustered
// keys. The entry keys are encoded into one slab sized to the bytes it holds,
// which the new leaves point into (through one copy in key order when Order
// had to sort), so a build allocates per slab, not per entry. Encoding is
// concatenative per value, so the stored pk bytes append verbatim.
func (ix *Index) bulkEntries(each func(fn func(pk []byte, row sqltypes.Row))) (btree.Slab, []int32) {
	size, n := 0, 0
	each(func(pk []byte, row sqltypes.Row) {
		for _, o := range ix.ordinals {
			size += sqltypes.EncodedLen(row[o])
		}
		size, n = size+len(pk), n+1
	})
	s := btree.Slab{Buf: make([]byte, 0, size), Offs: make([]int, 1, n+1)}
	each(func(pk []byte, row sqltypes.Row) {
		s.Buf = ix.appendEntry(s.Buf, row, pk)
		s.Offs = append(s.Offs, len(s.Buf))
		ix.bytes += ix.entrySize(row)
	})
	return s, s.Order()
}

// insertStored is Insert for a row whose clustered key is already encoded.
func (t *Table) insertStored(key []byte, stored sqltypes.Row, m *Metrics) error {
	if _, exists := t.data.Get(key); exists {
		return fmt.Errorf("storage: duplicate primary key in table %s", t.Def.Name)
	}
	var eb [keyBuf]byte
	t.data.Put(key, stored)
	t.bytes += int64(stored.Size()) + 16
	if m != nil {
		m.RowWrites++
		m.PageReads += int64(t.data.Height())
	}
	for _, ix := range t.indexes {
		ix.tree.Put(ix.appendEntry(eb[:0], stored, key), struct{}{})
		ix.bytes += ix.entrySize(stored)
		if m != nil {
			m.IndexWrites++
			m.PageReads += int64(ix.tree.Height())
		}
	}
	return nil
}

// GetByPK fetches the row with the given encoded primary key.
func (t *Table) GetByPK(key []byte, m *Metrics) (sqltypes.Row, bool) {
	if m != nil {
		m.PageReads += int64(t.data.Height())
	}
	row, ok := t.data.Get(key)
	if !ok {
		return nil, false
	}
	if m != nil {
		m.RowsRead++
	}
	return row, true
}

// GetBatchByPK fetches the row under every encoded primary key into rows
// (btree.Tree.GetBatch: the lookups interleave) and returns the index of the
// first key that names no row, or -1.
func (t *Table) GetBatchByPK(keys [][]byte, rows []sqltypes.Row) int {
	return t.data.GetBatch(keys, rows)
}

// DeleteByPK removes the row with the given encoded primary key, updating
// all secondary indexes. It reports whether a row was removed.
func (t *Table) DeleteByPK(key []byte, m *Metrics) bool {
	row, ok := t.data.Get(key)
	if !ok {
		return false
	}
	t.data.Delete(key)
	t.shape = catalog.Tick()
	t.bytes -= int64(row.Size()) + 16
	if m != nil {
		m.RowWrites++
		m.PageReads += int64(t.data.Height())
	}
	var eb [keyBuf]byte
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.appendEntry(eb[:0], row, key))
		ix.bytes -= ix.entrySize(row)
		if m != nil {
			m.IndexWrites++
			m.PageReads += int64(ix.tree.Height())
		}
	}
	return true
}

// Update replaces the row stored under key with newRow (which may change
// primary key columns), maintaining secondary indexes. Index entries are
// only rewritten when their key columns changed.
func (t *Table) Update(key []byte, newRow sqltypes.Row, m *Metrics) error {
	oldRow, ok := t.data.Get(key)
	if !ok {
		return fmt.Errorf("storage: update of missing row in table %s", t.Def.Name)
	}
	var nb, ob, eb [keyBuf]byte
	newKey := t.appendPK(nb[:0], newRow)
	stored := newRow.Clone()
	tick := catalog.Tick()
	if string(newKey) != string(key) {
		if _, exists := t.data.Get(newKey); exists {
			return fmt.Errorf("storage: duplicate primary key on update in table %s", t.Def.Name)
		}
		t.data.Delete(key)
		t.shape = tick
	}
	for i := range stored {
		if stored[i] != oldRow[i] {
			t.cols[i] = tick
		}
	}
	t.data.Put(newKey, stored)
	t.bytes += int64(stored.Size()) - int64(oldRow.Size())
	if m != nil {
		m.RowWrites++
		m.PageReads += int64(t.data.Height())
	}
	for _, ix := range t.indexes {
		oldEntry := ix.appendEntry(ob[:0], oldRow, key)
		newEntry := ix.appendEntry(eb[:0], stored, newKey)
		if string(oldEntry) == string(newEntry) {
			continue
		}
		t.shape = tick
		ix.tree.Delete(oldEntry)
		ix.tree.Put(newEntry, struct{}{})
		ix.bytes += ix.entrySize(stored) - ix.entrySize(oldRow)
		if m != nil {
			m.IndexWrites++
			m.PageReads += int64(ix.tree.Height())
		}
	}
	return nil
}

// BuildIndex materializes a new secondary index over the current table
// contents. The definition must reference only existing columns.
func (t *Table) BuildIndex(def *catalog.Index, m *Metrics) (*Index, error) {
	ix, err := t.PrepareIndex(def, m)
	if err != nil {
		return nil, err
	}
	if err := t.AttachIndex(ix); err != nil {
		return nil, err
	}
	return ix, nil
}

// PrepareIndex builds a secondary index over the current table contents
// without attaching it, so several index builds over the same table can run
// concurrently (builds only read the clustered tree; AttachIndex serializes
// the map write). Entry keys are encoded from clustered scans into one slab,
// sorted bytewise when the scan order does not already match (secondary entry
// keys are generally not PK-ordered), and bulk-loaded in O(n).
func (t *Table) PrepareIndex(def *catalog.Index, m *Metrics) (*Index, error) {
	lower := strings.ToLower(def.Name)
	if _, dup := t.indexes[lower]; dup {
		return nil, fmt.Errorf("storage: index %q already materialized", def.Name)
	}
	start := time.Now()
	ix := &Index{Def: def, pkOrds: t.Def.PrimaryKey}
	for _, c := range def.Columns {
		o := t.Def.ColumnIndex(c)
		if o < 0 {
			return nil, fmt.Errorf("storage: index %q references unknown column %q", def.Name, c)
		}
		ix.ordinals = append(ix.ordinals, o)
	}
	entries, order := ix.bulkEntries(func(fn func(pk []byte, row sqltypes.Row)) {
		for it := t.data.Seek(nil); it.Valid(); it.Next() {
			fn(it.Key(), it.Value())
		}
	})
	// Entry keys are unique (PK suffix) and freshly encoded: the tree's
	// leaves point into their slab, or its one in-order copy.
	ix.tree = btree.BulkLoad[struct{}](entries, order, nil)
	n := int64(entries.Len())
	if m != nil {
		m.RowsRead += n
		m.IndexWrites += n
		m.PageReads += int64(t.data.Leaves() + ix.tree.Leaves())
	}
	if ms := instr.Load(); ms != nil {
		ms.bulkRows.Add(n)
		ms.leafFill.Observe(ix.tree.FillPercent())
		ms.buildSeconds.Observe(time.Since(start).Seconds())
	}
	return ix, nil
}

// AdoptIndex returns, unattached like PrepareIndex, the index snap built for
// def caught up to this table, and how many changed rows it re-derived. snap
// must be a snapshot of this table (a Clone of its store, however many Clones
// removed) that nothing wrote since: the rows the table wrote after it are
// then among the entries of the clustered leaves the two no longer share
// (btree.Diff), and a row is unchanged when both sides hold the very same
// slice, because DML replaces rows and never edits them. For each changed row
// the old row's entry goes and the new row's comes, so the result holds what
// an index created at the snapshot instant and maintained since would hold —
// and when nothing wrote the table it is, node for node, the tree snap built.
// It is total: however many rows changed (a reload changes all: its rows are
// new slices), the result is exact; engine.CatchUp's rounds keep what is left
// for the write gate small. Neither snap nor the clustered tree is written;
// serialize with writers to t, like PrepareIndex.
func (t *Table) AdoptIndex(def *catalog.Index, snap *Table) (*Index, int, error) {
	if snap == nil || snap.Index(def.Name) == nil {
		return nil, 0, fmt.Errorf("storage: index %q not built on the snapshot", def.Name)
	}
	start, src := time.Now(), snap.Index(def.Name)
	ix := &Index{Def: def, tree: src.tree.Clone(), ordinals: src.ordinals, pkOrds: src.pkOrds, bytes: src.bytes}
	changed := 0
	btree.Diff(snap.data, t.data, func(pk []byte, old, cur sqltypes.Row) bool {
		if old != nil && cur != nil && &old[0] == &cur[0] {
			return true // the same stored row, in a leaf rewritten for a neighbour
		}
		changed++
		var ob, cb [keyBuf]byte
		var oldEntry, curEntry []byte
		if old != nil {
			oldEntry = ix.appendEntry(ob[:0], old, pk)
		}
		if cur != nil {
			curEntry = ix.appendEntry(cb[:0], cur, pk)
		}
		if old != nil && cur != nil && bytes.Equal(oldEntry, curEntry) {
			return true // an update that left the key columns alone
		}
		if old != nil {
			ix.tree.Delete(oldEntry)
			ix.bytes -= ix.entrySize(old)
		}
		if cur != nil {
			ix.tree.Put(curEntry, struct{}{})
			ix.bytes += ix.entrySize(cur)
		}
		return true
	})
	if ms := instr.Load(); ms != nil {
		ms.adoptRows.Observe(float64(changed))
		ms.adoptSeconds.Observe(time.Since(start).Seconds())
	}
	return ix, changed, nil
}

// AttachIndex registers a prepared index on the table. It fails if an index
// with the same name is already attached.
func (t *Table) AttachIndex(ix *Index) error {
	lower := strings.ToLower(ix.Def.Name)
	if _, dup := t.indexes[lower]; dup {
		return fmt.Errorf("storage: index %q already materialized", ix.Def.Name)
	}
	t.indexes[lower] = ix
	t.shape = catalog.Tick()
	return nil
}

// DropIndex removes a materialized index and reports whether it existed.
func (t *Table) DropIndex(name string) bool {
	lower := strings.ToLower(name)
	if _, ok := t.indexes[lower]; !ok {
		return false
	}
	delete(t.indexes, lower)
	t.shape = catalog.Tick()
	return true
}

// Store is a collection of tables keyed by lower-cased name.
type Store struct {
	tables map[string]*Table
	// Workers bounds the fan-out of parallel index builds
	// (engine.CreateIndexes; 0 = GOMAXPROCS). Builds are structural —
	// byte-identical at any worker count — so this only trades wall clock
	// for cores. Clone no longer fans out (copy-on-write snapshots are O(1)
	// pointer copies), but clones still inherit the setting for the builds
	// they run. Set before concurrent use.
	Workers int
	// snapshot/released drive the storage.snapshots_live gauge: Clone marks
	// the new handle a snapshot, Release retires it. Best-effort accounting
	// only; a never-released snapshot is simply garbage-collected.
	snapshot bool
	released bool
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tables: map[string]*Table{}} }

// CreateTable adds an empty table for def.
func (s *Store) CreateTable(def *catalog.Table) (*Table, error) {
	key := strings.ToLower(def.Name)
	if _, dup := s.tables[key]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", def.Name)
	}
	t := NewTable(def)
	s.tables[key] = t
	return t, nil
}

// Table returns the named table, or nil.
func (s *Store) Table(name string) *Table { return s.tables[strings.ToLower(name)] }

// TotalIndexBytes sums the size of all materialized secondary indexes.
func (s *Store) TotalIndexBytes() int64 {
	var n int64
	for _, t := range s.tables {
		for _, ix := range t.indexes {
			n += ix.bytes
		}
	}
	return n
}

// CloneChecked is Clone behind the "storage.clone" failpoint: the fault
// harness arms it to make snapshots die before they are taken, and hardened
// callers (shadow validation, the engine's CloneChecked) retry or degrade.
// Plain Clone stays infallible for callers with no failure path. Note the
// semantics shift with copy-on-write snapshots: the fault no longer models a
// row-copy dying mid-build (there is no row copy), it models the snapshot
// being refused outright — callers observe the identical error surface.
func (s *Store) CloneChecked() (*Store, error) {
	if err := failpoint.Inject("storage.clone"); err != nil {
		return nil, err
	}
	return s.Clone(), nil
}

// Clone takes a copy-on-write snapshot of the store in O(1) per tree:
// every B+tree is shared structurally via btree.Clone (a root-pointer copy
// that re-epochs both handles), and only the per-table/per-index metadata —
// maps, definitions, byte accounting — is copied. Rows and key bytes are
// shared outright (both are treated as immutable once stored — all mutations
// replace rows); tree nodes are shared until a writer on either handle
// path-copies them. Cost is proportional to the number of tables and
// indexes, independent of row count.
//
// Clone must be serialized with writers to this store (it re-epochs the
// source trees); the returned snapshot may then be read concurrently with
// live DML on the source — this is the substrate for the MyShadow clone
// environment and the regression detector's historical snapshots.
func (s *Store) Clone() *Store {
	start := time.Now()
	out := &Store{tables: make(map[string]*Table, len(s.tables)), Workers: s.Workers, snapshot: true}
	var shared int64
	for name, t := range s.tables {
		nt := &Table{Def: t.Def, data: t.data.Clone(), indexes: make(map[string]*Index, len(t.indexes)), bytes: t.bytes,
			shape: t.shape, cols: slices.Clone(t.cols)}
		shared += t.bytes
		for iname, ix := range t.indexes {
			nt.indexes[iname] = &Index{
				Def:      ix.Def.Materialized(),
				tree:     ix.tree.Clone(),
				ordinals: append([]int(nil), ix.ordinals...),
				pkOrds:   ix.pkOrds,
				bytes:    ix.bytes,
			}
			shared += ix.bytes
		}
		out.tables[name] = nt
	}
	if ms := instr.Load(); ms != nil {
		ms.clones.Inc()
		ms.snapshots.Add(1)
		ms.sharedBytes.Set(shared)
		ms.cloneSeconds.Observe(time.Since(start).Seconds())
	}
	return out
}

// Release retires a snapshot handle for the storage.snapshots_live gauge.
// Idempotent, and a no-op on stores that are not snapshots. Dropping a
// snapshot without releasing it is safe (the garbage collector reclaims
// unshared nodes); Release only keeps the gauge honest for long-running
// services.
func (s *Store) Release() {
	if !s.snapshot || s.released {
		return
	}
	s.released = true
	if ms := instr.Load(); ms != nil {
		ms.snapshots.Add(-1)
	}
}
