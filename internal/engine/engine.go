// Package engine is the embedded database facade: it owns the catalog,
// row store, statistics cache, optimizer and executor, and exposes a simple
// Exec/Query API plus the clone and what-if hooks AIM builds on.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aim/internal/audit"
	"aim/internal/catalog"
	"aim/internal/costcache"
	"aim/internal/exec"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/optimizer"
	"aim/internal/pool"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/stats"
	"aim/internal/storage"
)

// DefaultSampleLimit bounds ANALYZE sampling per table.
const DefaultSampleLimit = 5000

// DB is one logical database.
type DB struct {
	Name      string
	Schema    *catalog.Schema
	Store     *storage.Store
	Optimizer *optimizer.Optimizer
	// WhatIf memoizes what-if estimates behind a sharded LRU; all advisor
	// costing routes through it. The engine invalidates it whenever
	// statistics or the materialized schema change.
	WhatIf     *optimizer.Coster
	executor   *exec.Executor
	mu         sync.RWMutex // guards statsCache and writesSince
	statsCache map[string]*stats.TableStats
	// statsEpoch is the catalog.Tick of statsCache's last change, an entry
	// collected or dropped; a clone starts with its source's.
	statsEpoch atomic.Uint64
	// writesSince counts rows written per table since its statistics were
	// last collected (collectLocked restarts it, noteWrites applies the rule).
	writesSince map[string]int
	// obs is the attached metrics registry (nil = observability off). The DB
	// is the wiring hub: SetObs fans the registry out to the optimizer, the
	// what-if cache and the executor, and Clone propagates it so shadow
	// clones aggregate into the same registry as production.
	obs *obs.Registry
	// audit is the attached decision journal (nil = journaling off). Unlike
	// obs it is NOT propagated to clones: decisions are made against the
	// production handle, and a shadow clone writing duplicate records would
	// corrupt the lineage.
	audit *audit.Journal
	// cloneGate, when set, is held around snapshot creation. COW clones must
	// be serialized with writers to this DB; an embedding server installs
	// its statement gate's write side here so shadow validation can snapshot
	// mid-traffic (the O(1) clone holds the lock for microseconds) and then
	// replay against the frozen snapshot while live DML proceeds. Clones do
	// not inherit the gate — they are private to their creator.
	cloneGate sync.Locker
	// shapes is the digest-keyed template cache in front of the parser,
	// shared with every clone: a shape does not depend on the catalog.
	shapes *shapeCache
}

// SetObs attaches a metrics registry to this database and its components
// (optimizer what-if latency, cost-cache gauges, executor operator
// counters). Pass nil to detach. Call before concurrent use.
func (db *DB) SetObs(r *obs.Registry) {
	db.obs = r
	db.Optimizer.SetObs(r)
	db.WhatIf.SetObs(r)
	db.executor.SetObs(r)
}

// ObsRegistry returns the attached registry, or nil when observability is
// off. Components that only hold a *DB (the advisor, the shadow validator)
// reach the registry through this.
func (db *DB) ObsRegistry() *obs.Registry { return db.obs }

// SetAudit attaches a decision journal to this database. Pass nil to detach.
// Clones never inherit it (see the field comment). Call before concurrent
// use.
func (db *DB) SetAudit(j *audit.Journal) { db.audit = j }

// SetCloneGate installs a lock held around snapshot creation (nil removes
// it). Callers that interleave live writers with Clone/CloneChecked — the
// network server's tuning loop — pass the exclusive side of their write
// gate; single-threaded drivers never need one. Call before concurrent use.
func (db *DB) SetCloneGate(l sync.Locker) { db.cloneGate = l }

// AuditJournal returns the attached journal, or nil when journaling is off.
// The advisor, the shadow validator and the regression detector reach the
// journal through this; all of them tolerate nil.
func (db *DB) AuditJournal() *audit.Journal { return db.audit }

// New creates an empty database.
func New(name string) *DB {
	db := &DB{
		Name:        name,
		Schema:      catalog.NewSchema(),
		Store:       storage.NewStore(),
		statsCache:  map[string]*stats.TableStats{},
		writesSince: map[string]int{},
		shapes:      &shapeCache{},
	}
	db.Optimizer = optimizer.New(db.Schema, db)
	db.WhatIf = optimizer.NewCoster(db.Optimizer, costcache.DefaultCapacity)
	db.executor = exec.New(db.Store)
	return db
}

// TableStats implements optimizer.StatsProvider with lazy collection. It is
// safe for concurrent use; the first caller for a table collects under the
// write lock.
func (db *DB) TableStats(table string) *stats.TableStats {
	key := strings.ToLower(table)
	db.mu.RLock()
	ts, ok := db.statsCache[key]
	db.mu.RUnlock()
	if ok {
		return ts
	}
	tbl := db.Store.Table(table)
	if tbl == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if ts, ok := db.statsCache[key]; ok {
		return ts // another goroutine collected while we waited
	}
	return db.collectLocked(key, tbl)
}

// collectLocked is the one place statistics are collected: by Analyze after
// a load, and lazily by TableStats once noteWrites' churn rule dropped a
// table's entry — never by index DDL, which cannot change what Collect reads
// (the clustered tree). It restarts the table's churn count, since rows
// written before the collection are in it. Caller holds db.mu.
func (db *DB) collectLocked(key string, tbl *storage.Table) *stats.TableStats {
	ts := stats.Collect(tbl, DefaultSampleLimit)
	db.statsCache[key] = ts
	db.statsEpoch.Store(catalog.Tick())
	db.writesSince[key] = 0
	db.obs.Counter("engine.stats_collections").Inc()
	return ts
}

// Analyze collects fresh statistics for every table.
func (db *DB) Analyze() {
	db.mu.Lock()
	for _, t := range db.Schema.Tables() {
		if tbl := db.Store.Table(t.Name); tbl != nil {
			db.collectLocked(strings.ToLower(t.Name), tbl)
		}
	}
	db.mu.Unlock()
	db.WhatIf.Invalidate()
}

// Result is the outcome of one statement execution.
type Result struct {
	Columns []string
	Rows    []sqltypes.Row
	Stats   exec.Stats
	// Plan annotations for SELECTs.
	PlanDesc    []string
	UsedIndexes []string
	// Template is the text sqlparser.Normalize returns for the statement;
	// ExecStmt computes it anyway, so the workload monitor's feeders need not
	// normalize again.
	Template string
	// Entry is the template-cache entry the statement ran from, whose Text is
	// Template; nil when it was planned as written or arrived parsed.
	Entry *Entry
	// Stamp is, for a SELECT run from a cached shape (Prepare) or planned as
	// written (Template.Bypass), what its execution depended on (see Stamp);
	// 0 for anything else.
	Stamp uint64
}

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	p, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecPrepared(p)
}

// MustExec executes and panics on error — for fixtures and generators.
func (db *DB) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("engine: %v (sql: %s)", err, sql))
	}
	return r
}

// ExecStmt executes a parsed statement: normalize, then run the template with
// the statement's own literals as its parameters, so that the planner's
// parameter-independent half is looked up in the optimizer's memo instead of
// redone. A statement its template cannot stand in for (Template.Bypass) is
// planned as written, and counted.
func (db *DB) ExecStmt(stmt sqlparser.Statement) (*Result, error) {
	return db.ExecPrepared(Prepared{t: sqlparser.NewTemplate(stmt), stmt: stmt})
}

// Prepared is one statement ready to run: its template with the statement's
// parameters and, when the template cannot stand in for it, the statement as
// parsed.
type Prepared struct {
	t     sqlparser.Template
	stmt  sqlparser.Statement // planned as written when t.Bypass is set
	e     *Entry              // the cached shape it runs (nil: none)
	cols  []string            // a cached SELECT shape's output column names
	reads []tableReads        // a SELECT's reads from the template cache, which its Stamp covers
}

// IsSelect reports whether the statement is a SELECT.
func (p Prepared) IsSelect() bool {
	_, ok := p.t.Stmt.(*sqlparser.Select)
	return ok
}

// Prepare turns sql into a Prepared, parsing it only when its digest is not
// in the template cache: a statement whose shape was seen before takes its
// template, output column names, reads and parameter recipe from the cache.
// A Bypass shape is cached as such, so a repeat parses straight to its
// template; a statement the cache cannot hold (DDL, one that does not lex)
// goes through ParseShape every time. The error is the parser's.
func (db *DB) Prepare(sql string) (Prepared, error) {
	d := digests.Get().(*sqlparser.Digest)
	defer digests.Put(d)
	scanned := d.Scan(sql)
	if scanned {
		switch e := db.shapes.get(d.Key); {
		case e != nil && e.Shape != nil:
			return Prepared{t: sqlparser.Template{Text: e.Text, Stmt: e.Stmt, Params: e.Params(d.Lits)}, e: e, cols: e.cols, reads: e.reads}, nil
		case e != nil:
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				return Prepared{}, err
			}
			return Prepared{t: sqlparser.NewTemplate(stmt), stmt: stmt, reads: e.reads}, nil
		}
	}
	stmt, t, shape, err := sqlparser.ParseShape(sql, len(d.Lits))
	if err != nil {
		return Prepared{}, err
	}
	if !scanned || shape == nil {
		p := Prepared{t: t, stmt: stmt}
		if scanned && t.Bypass != "" {
			// The reasons are structural: every statement with the digest
			// bypasses, and reads what this one reads.
			if sel, ok := stmt.(*sqlparser.Select); ok {
				p.reads = readsOf(db.Schema, sel)
			}
			db.shapes.put(d.Key, &Entry{reads: p.reads})
		}
		return p, nil
	}
	e := &Entry{Shape: shape}
	if sel, ok := shape.Stmt.(*sqlparser.Select); ok {
		e.cols, e.reads = selectColumns(sel), readsOf(db.Schema, sel)
	}
	if got := db.shapes.put(d.Key, e); got.Shape != nil {
		e = got // the digest's first entry, which its ID names
	}
	return Prepared{t: t, e: e, cols: e.cols, reads: e.reads}, nil
}

// ExecPrepared executes a prepared statement; see ExecStmt.
func (db *DB) ExecPrepared(p Prepared) (*Result, error) {
	key, run, params, cols, reads := p.t.Text, p.t.Stmt, p.t.Params, p.cols, p.reads
	if p.t.Bypass != "" {
		db.Optimizer.CountBypass(p.t.Bypass)
		key, run, params, cols = "", p.stmt, nil, nil
		if sel, ok := run.(*sqlparser.Select); ok && reads == nil {
			reads = readsOf(db.Schema, sel)
		}
	}
	res, err := db.exec(key, run, params, cols)
	if err != nil {
		return nil, err
	}
	res.Template, res.Entry, res.Stamp = p.t.Text, p.e, db.stamp(reads)
	return res, nil
}

// tableReads is one table a SELECT shape reads and the ordinals of its
// columns the shape names.
type tableReads struct {
	name string // lower-cased
	ords []int
}

// readsOf lists the tables sel reads, each with every column whose name the
// statement mentions anywhere (all of them under a *), or nil when a table is
// unknown. Matching names without resolving qualifiers takes a superset of
// the columns sel reads, which only makes a stamp move more often.
func readsOf(schema *catalog.Schema, sel *sqlparser.Select) []tableReads {
	exprs, star := append([]sqlparser.Expr{sel.Where}, sel.GroupBy...), false
	for _, se := range sel.Exprs {
		exprs, star = append(exprs, se.Expr), star || se.Star
	}
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	named := map[string]bool{}
	for _, e := range exprs {
		for _, c := range sqlparser.ColumnsIn(e) {
			named[strings.ToLower(c.Column)] = true
		}
	}
	out := make([]tableReads, 0, len(sel.Tables))
	for _, ref := range sel.Tables {
		def := schema.Table(ref.Name)
		if def == nil {
			return nil
		}
		r := tableReads{name: strings.ToLower(ref.Name)}
		for i, c := range def.Columns {
			if star || named[strings.ToLower(c.Name)] {
				r.ords = append(r.ords, i)
			}
		}
		out = append(out, r)
	}
	return out
}

// stamp is the largest of the schema's version, the statistics epoch and, for
// each table in rs, its Stamp of the columns rs names; 0 when rs is nil or a
// table is missing. Every part is a catalog.Tick, so two executions of one
// shape with equal stamps ran on the same catalog, statistics and data as far
// as the shape can see — the same plan over the same rows — and report equal
// Stats. That holds across clones too: a change made on any copy after the
// stamp was read moves the copy's stamp past it.
func (db *DB) stamp(rs []tableReads) uint64 {
	if rs == nil {
		return 0
	}
	m := max(db.Schema.Version(), db.statsEpoch.Load())
	for _, r := range rs {
		t := db.Store.Table(r.name)
		if t == nil {
			return 0
		}
		m = max(m, t.Stamp(r.ords))
	}
	return m
}

// Stamp returns what executing stmt, a SELECT template, would depend on here
// right now: equal to a Result.Stamp of the same shape exactly when nothing
// that execution depended on has changed since. 0 when stmt is not a SELECT
// or reads an unknown table.
func (db *DB) Stamp(stmt sqlparser.Statement) uint64 {
	if sel, ok := stmt.(*sqlparser.Select); ok {
		return db.stamp(readsOf(db.Schema, sel))
	}
	return 0
}

// exec runs stmt with its placeholders bound to params; key, when not empty,
// is the template text the plan's prepared half is memoised under, and cols,
// when not nil, a SELECT's output column names.
func (db *DB) exec(key string, stmt sqlparser.Statement, params []sqltypes.Value, cols []string) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.Select:
		if cols == nil {
			cols = selectColumns(s)
		}
		return db.execSelect(key, s, params, cols)
	case *sqlparser.Insert:
		return db.execInsert(s, params)
	case *sqlparser.Update, *sqlparser.Delete:
		return db.execUpdateDelete(key, s, params)
	case *sqlparser.CreateTable:
		return db.execCreateTable(s)
	case *sqlparser.CreateIndex:
		return db.CreateIndex(&catalog.Index{Name: s.Name, Table: s.Table, Columns: s.Columns})
	case *sqlparser.DropIndex:
		return db.DropIndex(s.Name)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// selectColumns renders a SELECT's output column names. A template renders
// them as the statement would: one with a literal in its select list is not
// run as a template.
func selectColumns(s *sqlparser.Select) []string {
	cols := make([]string, len(s.Exprs))
	for i, se := range s.Exprs {
		switch {
		case se.Alias != "":
			cols[i] = se.Alias
		case se.Star:
			cols[i] = "*"
		default:
			cols[i] = se.Expr.SQL()
		}
	}
	return cols
}

func (db *DB) execSelect(key string, s *sqlparser.Select, params []sqltypes.Value, cols []string) (*Result, error) {
	plan, desc, err := db.Optimizer.PlanSelect(key, s, params)
	if err != nil {
		return nil, err
	}
	res, err := db.executor.Run(plan, cols)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:     res.Columns,
		Rows:        res.Rows,
		Stats:       res.Stats,
		PlanDesc:    desc,
		UsedIndexes: plan.UsedIndexes,
	}, nil
}

func (db *DB) execInsert(s *sqlparser.Insert, params []sqltypes.Value) (*Result, error) {
	tbl := db.Schema.Table(s.Table)
	if tbl == nil {
		return nil, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	// Evaluate row expressions (must be constant).
	rows := make([]sqltypes.Row, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		full := make(sqltypes.Row, len(tbl.Columns))
		for i := range full {
			full[i] = sqltypes.Null
		}
		if len(s.Columns) == 0 {
			if len(exprRow) != len(tbl.Columns) {
				return nil, fmt.Errorf("engine: INSERT expects %d values, got %d", len(tbl.Columns), len(exprRow))
			}
			for i, e := range exprRow {
				v, err := constEval(e, params)
				if err != nil {
					return nil, err
				}
				full[i] = v
			}
		} else {
			if len(exprRow) != len(s.Columns) {
				return nil, fmt.Errorf("engine: INSERT expects %d values, got %d", len(s.Columns), len(exprRow))
			}
			for i, c := range s.Columns {
				ord := tbl.ColumnIndex(c)
				if ord < 0 {
					return nil, fmt.Errorf("engine: unknown column %q", c)
				}
				v, err := constEval(exprRow[i], params)
				if err != nil {
					return nil, err
				}
				full[ord] = v
			}
		}
		rows = append(rows, full)
	}
	st, err := db.executor.Insert(s.Table, rows)
	if err != nil {
		return nil, err
	}
	db.noteWrites(s.Table, len(rows))
	return &Result{Stats: st}, nil
}

// constEval evaluates a constant expression; its placeholders read params.
func constEval(e sqlparser.Expr, params []sqltypes.Value) (sqltypes.Value, error) {
	ce, err := exec.Compile(e, emptyLayout, params)
	if err != nil {
		return sqltypes.Null, err
	}
	return ce(nil)
}

var emptyLayout = exec.NewLayout(nil)

func (db *DB) execUpdateDelete(key string, stmt sqlparser.Statement, params []sqltypes.Value) (*Result, error) {
	plan, assigns, err := db.Optimizer.PlanDML(key, stmt, params)
	if err != nil {
		return nil, err
	}
	var st exec.Stats
	var table string
	switch s := stmt.(type) {
	case *sqlparser.Update:
		table = s.Table
		st, err = db.executor.Update(plan, assigns)
	case *sqlparser.Delete:
		table = s.Table
		st, err = db.executor.Delete(plan)
	}
	if err != nil {
		return nil, err
	}
	db.noteWrites(table, int(st.RowsSent))
	return &Result{Stats: st}, nil
}

// noteWrites invalidates cached statistics after enough churn.
func (db *DB) noteWrites(table string, n int) {
	key := strings.ToLower(table)
	invalidated := false
	db.mu.Lock()
	db.writesSince[key] += n
	if ts := db.statsCache[key]; ts != nil {
		threshold := int(ts.RowCount/5) + 100
		if db.writesSince[key] >= threshold {
			delete(db.statsCache, key)
			db.statsEpoch.Store(catalog.Tick())
			invalidated = true
		}
	}
	db.mu.Unlock()
	if invalidated {
		db.WhatIf.Invalidate()
	}
}

func (db *DB) execCreateTable(s *sqlparser.CreateTable) (*Result, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	def, err := catalog.NewTable(s.Table, cols, s.PrimaryKey)
	if err != nil {
		return nil, err
	}
	if err := db.Schema.AddTable(def); err != nil {
		return nil, err
	}
	if _, err := db.Store.CreateTable(def); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// CreateIndex registers and materializes a secondary index.
func (db *DB) CreateIndex(def *catalog.Index) (*Result, error) {
	return db.CreateIndexes([]*catalog.Index{def})
}

// buildPolicy bounds per-index build retries inside CreateIndexes: a
// transient build failure (the "engine.create_index" failpoint, or a real
// allocator/IO error in a disk-backed port) is retried with backoff before
// the whole batch rolls back.
var buildPolicy = failpoint.Policy{Attempts: 3, Base: 500 * time.Microsecond, Max: 4 * time.Millisecond, Deadline: 250 * time.Millisecond}

// CreateIndexes registers and materializes several secondary indexes in one
// batch. The per-index tree builds (scan + sort + bulk load) fan out over
// the storage worker pool — builds only read the clustered trees and each
// writes its own result slot — while schema registration, attachment and
// metric folding stay sequential in input order, so the outcome is
// byte-identical at any worker count. On any failure every index of the
// batch is rolled back.
func (db *DB) CreateIndexes(defs []*catalog.Index) (*Result, error) {
	return db.addIndexes(defs, (*storage.Table).PrepareIndex)
}

// AdoptIndexes is CreateIndexes for indexes already built on built, a
// snapshot of this database nothing has written since: each is caught up with
// what this database wrote after the snapshot (storage.AdoptIndex — no work
// when nothing did) and attached. It is the tuning cycle's gated handoff from
// the shadow gate, on the snapshot CatchUp returns, and has no other caller:
// the gate's verdict is what licenses the trees.
func (db *DB) AdoptIndexes(built *DB, defs []*catalog.Index) (*Result, error) {
	return db.addIndexes(defs, func(tbl *storage.Table, def *catalog.Index, _ *storage.Metrics) (*storage.Index, error) {
		ix, _, err := tbl.AdoptIndex(def, built.Store.Table(def.Table))
		return ix, err
	})
}

// The catch-up rounds' constants. A round re-derives a changed row in about
// 9.4 µs (BENCH_storage.json: AdoptIndex/changed=100, 0.94 ms), so once a
// round re-derived at most catchUpBound rows, what was written while it ran
// leaves the gated AdoptIndexes about a millisecond. Writers at half the
// catch-up's pace halve each round, and maxCatchUpRounds halvings take the
// largest first round, a 100 000-row table rewritten whole, under the bound;
// faster writers outpace the catch-up. Structural, like the sort's
// radixCutoff: ratios of this implementation's costs, not options.
const (
	catchUpBound     = 100
	maxCatchUpRounds = 10
)

// CatchUp brings the trees built (an accepted shadow report's snapshot of
// db) holds for defs up to db in rounds that hold only the clone gate: each
// takes a plain Clone of db, attaches to it the previous round's trees
// caught up by storage.AdoptIndex, and releases the previous round's
// snapshot — so the trees stay the indexes as if created at the validation
// snapshot and maintained since. Once a round re-derived at most
// catchUpBound rows its snapshot is returned, for AdoptIndexes to diff under
// the write gate and the caller to release; after maxCatchUpRounds nothing is
// kept and the error names the rows outstanding. No failpoint is evaluated,
// built is neither written nor released, and engine.adopt_rounds observes
// the rounds run.
func (db *DB) CatchUp(built *DB, defs []*catalog.Index) (*DB, error) {
	prev := built
	for round := 1; ; round++ {
		snap := db.Clone("catch-up")
		changed, err := catchUpRound(snap, prev, defs)
		if prev != built {
			prev.Release()
		}
		if err == nil && changed > catchUpBound {
			if round < maxCatchUpRounds {
				prev = snap
				continue
			}
			err = fmt.Errorf("engine: catch-up outpaced: %d rows still outstanding after %d rounds (bound %d)", changed, round, catchUpBound)
		}
		db.obs.Histogram("engine.adopt_rounds").Observe(float64(round))
		if err != nil {
			snap.Release()
			return nil, err
		}
		return snap, nil
	}
}

// catchUpRound attaches to snap's tables the trees prev holds for defs,
// caught up to snap, and returns the rows it re-derived.
func catchUpRound(snap, prev *DB, defs []*catalog.Index) (int, error) {
	changed := 0
	for _, def := range defs {
		tbl := snap.Store.Table(def.Table) // built's tables are db's: tables are never dropped
		ix, n, err := tbl.AdoptIndex(def, prev.Store.Table(def.Table))
		if err == nil {
			err = tbl.AttachIndex(ix)
		}
		if err != nil {
			return 0, err
		}
		changed += n
	}
	return changed, nil
}

// addIndexes is the batch both go through: register, prepare each tree
// behind the "engine.create_index" failpoint and buildPolicy, attach in input
// order, invalidate the what-if cache — or roll everything back.
func (db *DB) addIndexes(defs []*catalog.Index, prepare func(*storage.Table, *catalog.Index, *storage.Metrics) (*storage.Index, error)) (*Result, error) {
	if len(defs) == 0 {
		return &Result{}, nil
	}
	registered := 0
	rollback := func() {
		for _, def := range defs[:registered] {
			db.Schema.DropIndex(def.Name)
		}
	}
	for _, def := range defs {
		if def.Hypothetical {
			rollback()
			return nil, fmt.Errorf("engine: cannot materialize hypothetical index %q", def.Name)
		}
		if err := db.Schema.AddIndex(def); err != nil {
			rollback()
			return nil, err
		}
		registered++
	}
	built := make([]*storage.Index, len(defs))
	errs := make([]error, len(defs))
	ms := make([]storage.Metrics, len(defs))
	pool.ForEach(db.Store.Workers, len(defs), func(i int) {
		tbl := db.Store.Table(defs[i].Table)
		if tbl == nil {
			errs[i] = fmt.Errorf("engine: unknown table %q", defs[i].Table)
			return
		}
		// Per-index builds retry transient failures (the
		// "engine.create_index" failpoint stands in for them) with bounded
		// backoff; metrics reset per attempt so a retried build is not
		// double-counted.
		errs[i] = buildPolicy.Do(func() error {
			if err := failpoint.Inject("engine.create_index"); err != nil {
				return err
			}
			ms[i] = storage.Metrics{}
			var err error
			built[i], err = prepare(tbl, defs[i], &ms[i])
			return err
		})
	})
	var m storage.Metrics
	for i := range defs {
		if errs[i] == nil {
			errs[i] = db.Store.Table(defs[i].Table).AttachIndex(built[i])
		}
		if errs[i] != nil {
			for _, def := range defs[:i] {
				db.Store.Table(def.Table).DropIndex(def.Name)
			}
			rollback()
			return nil, errs[i]
		}
		m.Add(ms[i])
	}
	db.WhatIf.Invalidate()
	return &Result{Stats: exec.Stats{RowsRead: m.RowsRead, PageReads: m.PageReads, IndexWrites: m.IndexWrites}}, nil
}

// DropIndex removes a secondary index from the schema and store. The
// "engine.drop_index" failpoint fires before any mutation, so an injected
// drop failure leaves the index fully intact (the detector's Revert retries it).
func (db *DB) DropIndex(name string) (*Result, error) {
	ix := db.Schema.Index(name)
	if ix == nil {
		return nil, fmt.Errorf("engine: unknown index %q", name)
	}
	if err := failpoint.Inject("engine.drop_index"); err != nil {
		return nil, err
	}
	db.Schema.DropIndex(name)
	if tbl := db.Store.Table(ix.Table); tbl != nil {
		tbl.DropIndex(name)
	}
	db.WhatIf.Invalidate()
	return &Result{}, nil
}

// EstimateIndexSize sizes a (possibly hypothetical) index from statistics:
// per entry, the key columns' average widths plus the primary key twice
// (suffix + payload) plus fixed overhead.
func (db *DB) EstimateIndexSize(def *catalog.Index) int64 {
	ts := db.TableStats(def.Table)
	tbl := db.Schema.Table(def.Table)
	if ts == nil || tbl == nil || ts.RowCount == 0 {
		return 0
	}
	perEntry := 16.0
	width := func(col string) float64 {
		switch tbl.Columns[tbl.ColumnIndex(col)].Type {
		case sqltypes.KindString, sqltypes.KindBytes:
			return 18 // typical short-string payload
		default:
			return 8
		}
	}
	for _, c := range def.Columns {
		perEntry += width(c)
	}
	for _, c := range tbl.PrimaryKeyNames() {
		perEntry += 2 * width(c)
	}
	return int64(perEntry * float64(ts.RowCount))
}

// TotalIndexBytes returns the materialized secondary index footprint.
func (db *DB) TotalIndexBytes() int64 { return db.Store.TotalIndexBytes() }

// Clone produces an isolated copy of the database (schema, data, indexes,
// statistics) as an O(1) copy-on-write snapshot: the store shares every
// tree node with the original until one side writes. This is the MyShadow
// substrate — experiments run on the clone never touch the original, and
// reads on the clone stay byte-stable under live DML on the original.
// Clone must be serialized with writers to this DB; the returned handle is
// then fully independent.
func (db *DB) Clone(name string) *DB {
	if db.cloneGate != nil {
		db.cloneGate.Lock()
		defer db.cloneGate.Unlock()
	}
	return db.cloneFrom(name, db.Store.Clone())
}

// CloneChecked is Clone behind the storage layer's "storage.clone"
// failpoint. The continuous-tuning path (shadow validation) clones through
// this so a refused snapshot surfaces as an error the caller can retry or
// degrade on, instead of an invariant the loop silently assumes.
func (db *DB) CloneChecked(name string) (*DB, error) {
	if db.cloneGate != nil {
		db.cloneGate.Lock()
		defer db.cloneGate.Unlock()
	}
	st, err := db.Store.CloneChecked()
	if err != nil {
		return nil, err
	}
	return db.cloneFrom(name, st), nil
}

// Release retires a snapshot database for the storage.snapshots_live gauge.
// Idempotent; a no-op on non-snapshot databases. Dropping a snapshot without
// releasing it is safe — this only keeps the gauge honest.
func (db *DB) Release() { db.Store.Release() }

func (db *DB) cloneFrom(name string, store *storage.Store) *DB {
	out := &DB{
		Name:        name,
		Schema:      db.Schema.Clone(),
		Store:       store,
		statsCache:  map[string]*stats.TableStats{},
		writesSince: map[string]int{},
		shapes:      db.shapes,
	}
	db.mu.RLock()
	for k, v := range db.statsCache {
		out.statsCache[k] = v
	}
	out.statsEpoch.Store(db.statsEpoch.Load())
	db.mu.RUnlock()
	out.Optimizer = optimizer.New(out.Schema, out)
	out.WhatIf = optimizer.NewCoster(out.Optimizer, costcache.DefaultCapacity)
	out.executor = exec.New(out.Store)
	if db.obs != nil {
		out.SetObs(db.obs)
	}
	return out
}

// InsertRows bulk-loads rows (already in full table column order) without
// per-row SQL parsing. Generators use it to build benchmark datasets;
// batches arriving in primary-key order take the storage layer's O(n)
// bulk-append path.
func (db *DB) InsertRows(table string, rows []sqltypes.Row) error {
	tbl := db.Store.Table(table)
	if tbl == nil {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	if err := tbl.InsertBatch(rows, nil); err != nil {
		return err
	}
	db.noteWrites(table, len(rows))
	return nil
}
