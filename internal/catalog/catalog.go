// Package catalog holds schema metadata: tables, columns, primary keys and
// secondary index definitions (both materialized and hypothetical/dataless).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"aim/internal/sqltypes"
)

// Column describes one table column.
type Column struct {
	Name string
	Type sqltypes.Kind
}

// Table describes a table: its columns and clustered primary key.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []int // ordinals into Columns
	colIndex   map[string]int
}

// NewTable builds a table definition. pk lists primary key column names in
// key order; every name must exist among cols.
func NewTable(name string, cols []Column, pk []string) (*Table, error) {
	t := &Table{Name: name, Columns: cols, colIndex: make(map[string]int, len(cols))}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIndex[lc]; dup {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", c.Name, name)
		}
		t.colIndex[lc] = i
	}
	for _, p := range pk {
		i, ok := t.colIndex[strings.ToLower(p)]
		if !ok {
			return nil, fmt.Errorf("catalog: primary key column %q not in table %q", p, name)
		}
		t.PrimaryKey = append(t.PrimaryKey, i)
	}
	if len(t.PrimaryKey) == 0 {
		return nil, fmt.Errorf("catalog: table %q requires a primary key", name)
	}
	return t, nil
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// ColumnNames returns the column names in ordinal order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// PrimaryKeyNames returns the primary key column names in key order.
func (t *Table) PrimaryKeyNames() []string {
	out := make([]string, len(t.PrimaryKey))
	for i, o := range t.PrimaryKey {
		out[i] = t.Columns[o].Name
	}
	return out
}

// IsPrimaryKey reports whether name is one of the primary key columns.
func (t *Table) IsPrimaryKey(name string) bool {
	for _, o := range t.PrimaryKey {
		if strings.EqualFold(t.Columns[o].Name, name) {
			return true
		}
	}
	return false
}

// Index describes a secondary index. Hypothetical (dataless) indexes carry
// statistics but no materialized entries; the optimizer can cost plans with
// them exactly as with real indexes.
type Index struct {
	Name         string
	Table        string
	Columns      []string // key columns in order
	Hypothetical bool
	// CreatedBy records provenance ("dba", "aim", "extend", ...) so the
	// continuous regression detector can target automation-added indexes.
	CreatedBy string
}

// HasColumn reports whether name is one of the index key columns.
func (ix *Index) HasColumn(name string) bool {
	for _, c := range ix.Columns {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// Covers reports whether the index key columns plus the table's primary key
// cover all of the named columns (i.e. an index-only read can answer them).
func (ix *Index) Covers(t *Table, needed []string) bool {
	for _, n := range needed {
		if !ix.HasColumn(n) && !t.IsPrimaryKey(n) {
			return false
		}
	}
	return true
}

// Equal reports whether two indexes have the same table and column list.
func (ix *Index) Equal(other *Index) bool {
	if !strings.EqualFold(ix.Table, other.Table) || len(ix.Columns) != len(other.Columns) {
		return false
	}
	for i := range ix.Columns {
		if !strings.EqualFold(ix.Columns[i], other.Columns[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical identity string for the index definition
// (table + ordered columns), independent of the index name.
func (ix *Index) Key() string {
	cols := make([]string, len(ix.Columns))
	for i, c := range ix.Columns {
		cols[i] = strings.ToLower(c)
	}
	return strings.ToLower(ix.Table) + "(" + strings.Join(cols, ",") + ")"
}

// Materialized returns a deep copy of the definition with the hypothetical
// flag cleared — the def to hand to CreateIndexes, which keeps what it gets.
func (ix *Index) Materialized() *Index {
	def := *ix
	def.Columns = append([]string(nil), ix.Columns...)
	def.Hypothetical = false
	return &def
}

// String renders the index like "CREATE INDEX name ON table (a, b)".
func (ix *Index) String() string {
	return fmt.Sprintf("INDEX %s ON %s (%s)", ix.Name, ix.Table, strings.Join(ix.Columns, ", "))
}

// Schema is a collection of tables and index definitions. Reads and writes
// are safe for concurrent use: the advisor's parallel what-if costing reads
// the schema from many goroutines while DDL may land from another.
type Schema struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	indexes map[string]*Index // by lower-cased index name
	// version is the Tick of the last change to tables and indexes. What is
	// derived from the schema (a prepared plan) records the version it read
	// before reading anything else and is stale once Version has moved on.
	version atomic.Uint64
}

// Version returns the Tick of the schema's last change; a Clone starts with
// its source's.
func (s *Schema) Version() uint64 { return s.version.Load() }

// clock is the process-wide change clock behind Tick.
var clock atomic.Uint64

// Tick returns a change stamp greater than every one returned before, in any
// goroutine. Every counter an execution's engine stamp reads — a schema's
// version, a database's statistics epoch, a stored table's shape and column
// counters — is the Tick of its last change, so a value names one change to
// one copy, and the largest of a set of such counters moves past any value
// read earlier whenever one of them changes.
func Tick() uint64 { return clock.Add(1) }

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: map[string]*Table{}, indexes: map[string]*Index{}}
}

// AddTable registers a table.
func (s *Schema) AddTable(t *Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	s.tables[key] = t
	s.version.Store(Tick())
	return nil
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[strings.ToLower(name)]
}

// Tables returns all tables sorted by name.
func (s *Schema) Tables() []*Table {
	s.mu.RLock()
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers an index definition after validating it.
func (s *Schema) AddIndex(ix *Index) error {
	t := s.Table(ix.Table)
	s.mu.Lock()
	defer s.mu.Unlock()
	if t == nil {
		return fmt.Errorf("catalog: index %q references unknown table %q", ix.Name, ix.Table)
	}
	if len(ix.Columns) == 0 {
		return fmt.Errorf("catalog: index %q has no columns", ix.Name)
	}
	seen := map[string]bool{}
	for _, c := range ix.Columns {
		if t.ColumnIndex(c) < 0 {
			return fmt.Errorf("catalog: index %q references unknown column %q", ix.Name, c)
		}
		lc := strings.ToLower(c)
		if seen[lc] {
			return fmt.Errorf("catalog: index %q repeats column %q", ix.Name, c)
		}
		seen[lc] = true
	}
	key := strings.ToLower(ix.Name)
	if _, dup := s.indexes[key]; dup {
		return fmt.Errorf("catalog: index %q already exists", ix.Name)
	}
	s.indexes[key] = ix
	s.version.Store(Tick())
	return nil
}

// DropIndex removes the named index and reports whether it existed.
func (s *Schema) DropIndex(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.indexes[key]; !ok {
		return false
	}
	delete(s.indexes, key)
	s.version.Store(Tick())
	return true
}

// Index returns the named index, or nil.
func (s *Schema) Index(name string) *Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.indexes[strings.ToLower(name)]
}

// Indexes returns all index definitions sorted by name.
func (s *Schema) Indexes() []*Index {
	s.mu.RLock()
	out := make([]*Index, 0, len(s.indexes))
	for _, ix := range s.indexes {
		out = append(out, ix)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindIndexByColumns returns an existing index (materialized or not) with
// the exact same table and column sequence, or nil.
func (s *Schema) FindIndexByColumns(table string, cols []string) *Index {
	probe := &Index{Table: table, Columns: cols}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ix := range s.indexes {
		if ix.Equal(probe) {
			return ix
		}
	}
	return nil
}

// Clone returns a deep copy of the schema (tables are shared, as they are
// immutable; index definitions are copied) at the source's version.
func (s *Schema) Clone() *Schema {
	out := NewSchema()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out.version.Store(s.version.Load())
	for k, t := range s.tables {
		out.tables[k] = t
	}
	for k, ix := range s.indexes {
		cp := *ix
		cp.Columns = append([]string(nil), ix.Columns...)
		out.indexes[k] = &cp
	}
	return out
}
