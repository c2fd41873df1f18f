// Package products synthesizes the seven production workloads of Table II
// (Products A-G). The paper's real workloads are proprietary; this
// generator reproduces the *experiment design*: per product it matches the
// table count, join-query count, read/write mix, and a manually tuned DBA
// index set derived the way a DBA would (one obvious index per query
// template, plus a sprinkle of stale/legacy indexes). Experiments then drop
// all secondary indexes and let AIM rebuild from scratch, comparing index
// count, total size and Jaccard similarity against the DBA set.
package products

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/sqltypes"
	"aim/internal/stats"
)

// WorkloadType is the read/write mix classification from Table II.
type WorkloadType int

// Workload types.
const (
	WriteHeavy WorkloadType = iota
	ReadHeavy
	Balanced
)

func (w WorkloadType) String() string {
	switch w {
	case WriteHeavy:
		return "Write Heavy"
	case ReadHeavy:
		return "Read Heavy"
	default:
		return "Balanced"
	}
}

// writeFraction returns the probability that a sampled statement is DML.
func (w WorkloadType) writeFraction() float64 {
	switch w {
	case WriteHeavy:
		return 0.55
	case ReadHeavy:
		return 0.08
	default:
		return 0.30
	}
}

// Spec parameterizes one synthetic product.
type Spec struct {
	Name         string
	Tables       int
	JoinQueries  int
	Type         WorkloadType
	TargetDBA    int // approximate DBA index count from Table II
	RowsPerTable int
	Seed         int64
}

// Catalog mirrors Table II's product metadata. RowsPerTable is chosen so
// the whole fleet stays laptop-sized; relative proportions drive the size
// comparisons, not absolute GiB.
var Catalog = []Spec{
	{Name: "Product A", Tables: 147, JoinQueries: 67, Type: WriteHeavy, TargetDBA: 248, RowsPerTable: 600, Seed: 101},
	{Name: "Product B", Tables: 184, JoinQueries: 733, Type: ReadHeavy, TargetDBA: 287, RowsPerTable: 400, Seed: 102},
	{Name: "Product C", Tables: 42, JoinQueries: 25, Type: Balanced, TargetDBA: 51, RowsPerTable: 800, Seed: 103},
	{Name: "Product D", Tables: 16, JoinQueries: 18, Type: WriteHeavy, TargetDBA: 56, RowsPerTable: 1000, Seed: 104},
	{Name: "Product E", Tables: 51, JoinQueries: 41, Type: ReadHeavy, TargetDBA: 109, RowsPerTable: 800, Seed: 105},
	{Name: "Product F", Tables: 5, JoinQueries: 10, Type: ReadHeavy, TargetDBA: 33, RowsPerTable: 1500, Seed: 106},
	{Name: "Product G", Tables: 79, JoinQueries: 386, Type: Balanced, TargetDBA: 232, RowsPerTable: 500, Seed: 107},
}

// SpecByName finds a catalog entry ("A".."G" or full name).
func SpecByName(name string) (Spec, bool) {
	for _, s := range Catalog {
		if strings.EqualFold(s.Name, name) || strings.EqualFold(s.Name, "Product "+name) {
			return s, true
		}
	}
	return Spec{}, false
}

// template is one generated query shape with the metadata needed to derive
// the DBA's "obvious" index for it.
type template struct {
	kind     tmplKind
	table    string
	eqCols   []string
	rangeCol string
	orderCol string
	joinWith string // second table for join templates
	weight   int    // relative sampling frequency
}

type tmplKind int

const (
	tmplEq tmplKind = iota
	tmplEqRange
	tmplEqOrder
	tmplGroup
	tmplIn
	tmplJoin2
	tmplJoin3
)

// Product is a generated database plus its workload and DBA index set.
type Product struct {
	Spec Spec
	DB   *engine.DB
	// DBAIndexes is the manually tuned configuration (materialize with
	// ApplyDBAIndexes).
	DBAIndexes []*catalog.Index
	templates  []template
	rows       map[string]int // live row count per table for DML sampling
	nextID     map[string]int64
}

func tableName(i int) string { return fmt.Sprintf("t%03d", i) }
func colName(i int) string   { return fmt.Sprintf("c%d", i) }

// Build generates the product database, workload templates and DBA set.
func Build(spec Spec) (*Product, error) {
	if spec.RowsPerTable <= 0 {
		spec.RowsPerTable = 300
	}
	db := engine.New(strings.ReplaceAll(strings.ToLower(spec.Name), " ", "-"))
	r := rand.New(rand.NewSource(spec.Seed))
	p := &Product{Spec: spec, DB: db, rows: map[string]int{}, nextID: map[string]int64{}}

	// Schema: every table has id PK, c1..c4 ints of varying cardinality,
	// c5 string, c6 int "ref" used for joins.
	for i := 0; i < spec.Tables; i++ {
		name := tableName(i)
		ddl := fmt.Sprintf(`CREATE TABLE %s (id INT, c1 INT, c2 INT, c3 INT, c4 INT, c5 VARCHAR(8), c6 INT, c7 INT, PRIMARY KEY (id))`, name)
		if _, err := db.Exec(ddl); err != nil {
			return nil, err
		}
		var rows []sqltypes.Row
		for k := 0; k < spec.RowsPerTable; k++ {
			rows = append(rows, p.randomRow(r, int64(k), spec.RowsPerTable))
		}
		if err := db.InsertRows(name, rows); err != nil {
			return nil, err
		}
		p.rows[name] = spec.RowsPerTable
		p.nextID[name] = int64(spec.RowsPerTable)
	}
	db.Analyze()

	p.generateTemplates(r)
	p.deriveDBAIndexes(r)
	return p, nil
}

func (p *Product) randomRow(r *rand.Rand, id int64, n int) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(id),
		sqltypes.NewInt(int64(r.Intn(max(5, n/10)))),       // c1: mid cardinality
		sqltypes.NewInt(int64(r.Intn(max(3, n/40)))),       // c2: low cardinality
		sqltypes.NewInt(int64(r.Intn(n * 2))),              // c3: high cardinality
		sqltypes.NewInt(int64(r.Intn(100))),                // c4: range-ish
		sqltypes.NewString(fmt.Sprintf("s%d", r.Intn(12))), // c5
		sqltypes.NewInt(int64(r.Intn(max(5, n/8)))),        // c6: join key
		sqltypes.NewInt(int64(r.Intn(10000))),              // c7: payload, updated by DML
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// generateTemplates builds read templates: enough single-table shapes to
// roughly hit the DBA index target, plus the Table II join-query count.
func (p *Product) generateTemplates(r *rand.Rand) {
	single := p.Spec.TargetDBA - p.Spec.JoinQueries/4
	if single < p.Spec.Tables/2 {
		single = p.Spec.Tables / 2
	}
	shapes := []tmplKind{tmplEq, tmplEq, tmplEqRange, tmplEqOrder, tmplGroup, tmplIn}
	for i := 0; i < single; i++ {
		table := tableName(r.Intn(p.Spec.Tables))
		kind := shapes[r.Intn(len(shapes))]
		t := template{kind: kind, table: table, weight: 1 + r.Intn(8)}
		switch kind {
		case tmplEq:
			t.eqCols = pickCols(r, 1+r.Intn(2))
		case tmplEqRange:
			t.eqCols = pickCols(r, 1+r.Intn(2))
			t.rangeCol = "c4"
		case tmplEqOrder:
			t.eqCols = pickCols(r, 1)
			t.orderCol = "c3"
		case tmplGroup:
			t.eqCols = nil
			t.orderCol = ""
			t.rangeCol = ""
		case tmplIn:
			t.eqCols = []string{"c5"}
		}
		p.templates = append(p.templates, t)
	}
	// Join queries concentrate on a small set of hub tables (real schemas
	// join through a few central entities), which makes distinct join
	// indexes far fewer than join queries — as in Table II, where Product B
	// has 733 join queries but only 287 DBA indexes.
	nJoin := p.Spec.JoinQueries
	hubs := p.Spec.Tables / 5
	if hubs < 2 {
		hubs = 2
	}
	for i := 0; i < nJoin; i++ {
		a := tableName(r.Intn(p.Spec.Tables))
		b := tableName(r.Intn(hubs))
		for b == a {
			b = tableName(r.Intn(p.Spec.Tables))
		}
		t := template{kind: tmplJoin2, table: a, joinWith: b,
			eqCols: []string{colName(1 + r.Intn(2))}, weight: 1 + r.Intn(4)}
		if r.Intn(4) == 0 {
			t.kind = tmplJoin3
		}
		p.templates = append(p.templates, t)
	}
}

func pickCols(r *rand.Rand, n int) []string {
	perm := r.Perm(4)
	var out []string
	for i := 0; i < n && i < len(perm); i++ {
		out = append(out, colName(perm[i]+1)) // c1..c4
	}
	return out
}

// deriveDBAIndexes builds the manual configuration. A competent DBA
// reasons about index column order much like AIM does (that is what gives
// Table II its high Jaccard similarities): per query template they write
// down the equality columns followed by the range/order column, then fold
// narrower templates into wider indexes on the same table by putting the
// shared (prefix) columns first, order equality groups by selectivity, and
// finally drop prefix-redundant leftovers. A sprinkle of stale "legacy"
// indexes that no current query uses survives the cleanup, as in any real
// deployment. The count is capped near the Table II target, hottest
// templates first.
func (p *Product) deriveDBAIndexes(r *rand.Rand) {
	type naive struct {
		table  string
		fronts [][]string // ordered groups; within a group NDV-desc
		tail   []string   // range/order suffix
		weight int
		merged bool
	}
	colsOf := func(n *naive) map[string]bool {
		set := map[string]bool{}
		for _, g := range n.fronts {
			for _, c := range g {
				set[c] = true
			}
		}
		for _, c := range n.tail {
			set[c] = true
		}
		return set
	}

	// One naive index sketch per template, hottest first.
	ordered := append([]template(nil), p.templates...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].weight > ordered[j].weight })
	var sketches []*naive
	for _, t := range ordered {
		n := &naive{table: t.table, weight: t.weight}
		switch t.kind {
		case tmplGroup:
			n.fronts = [][]string{{"c2"}}
		case tmplJoin2, tmplJoin3:
			n.fronts = [][]string{unionColsP(append([]string{"c6"}, t.eqCols...))}
			sketches = append(sketches, &naive{table: t.joinWith, fronts: [][]string{{"c6"}}, weight: t.weight})
		default:
			if len(t.eqCols) > 0 {
				n.fronts = [][]string{unionColsP(t.eqCols)}
			}
			if t.rangeCol != "" {
				n.tail = append(n.tail, t.rangeCol)
			}
			if t.orderCol != "" {
				n.tail = append(n.tail, t.orderCol)
			}
		}
		if len(n.fronts) > 0 || len(n.tail) > 0 {
			sketches = append(sketches, n)
		}
	}

	// One folding pass: a sketch whose columns are a subset of a wider
	// sketch's first equality group gets pulled to the front of it.
	for i, small := range sketches {
		if small.merged || len(small.tail) > 0 || len(small.fronts) != 1 {
			continue
		}
		for j, big := range sketches {
			if i == j || big.merged || small.table != big.table || len(big.fronts) == 0 {
				continue
			}
			group := map[string]bool{}
			for _, c := range big.fronts[0] {
				group[c] = true
			}
			sub := true
			for c := range colsOf(small) {
				if !group[c] {
					sub = false
					break
				}
			}
			if !sub || len(small.fronts[0]) == len(big.fronts[0]) {
				continue
			}
			var rest []string
			for _, c := range big.fronts[0] {
				if !contains(small.fronts[0], c) {
					rest = append(rest, c)
				}
			}
			big.fronts = append([][]string{small.fronts[0], rest}, big.fronts[1:]...)
			small.merged = true
			break
		}
	}

	seen := map[string]bool{}
	add := func(table string, cols []string) {
		uniq := cols[:0:0]
		seenCol := map[string]bool{}
		for _, c := range cols {
			if c != "" && !seenCol[c] {
				seenCol[c] = true
				uniq = append(uniq, c)
			}
		}
		if len(uniq) == 0 {
			return
		}
		ix := &catalog.Index{
			Name:      fmt.Sprintf("dba_%s_%d", table, len(p.DBAIndexes)),
			Table:     table,
			Columns:   uniq,
			CreatedBy: "dba",
		}
		if !seen[ix.Key()] {
			seen[ix.Key()] = true
			p.DBAIndexes = append(p.DBAIndexes, ix)
		}
	}
	for _, n := range sketches {
		if n.merged {
			continue
		}
		if len(p.DBAIndexes) >= p.Spec.TargetDBA {
			break
		}
		ts := p.DB.TableStats(n.table)
		var cols []string
		for _, g := range n.fronts {
			gg := append([]string(nil), g...)
			sortColsByNDV(gg, ts)
			cols = append(cols, gg...)
		}
		cols = append(cols, n.tail...)
		add(n.table, cols)
	}
	// Legacy indexes: plausible once, unused by the current workload.
	legacy := len(p.DBAIndexes) / 12
	for i := 0; i < legacy; i++ {
		table := tableName(r.Intn(p.Spec.Tables))
		add(table, []string{"c3", "c5"})
	}
	// A tidy DBA drops indexes that are prefixes of wider ones.
	p.DBAIndexes = dropPrefixIndexes(p.DBAIndexes)
}

func unionColsP(cols []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func contains(list []string, c string) bool {
	for _, x := range list {
		if x == c {
			return true
		}
	}
	return false
}

// dropPrefixIndexes removes indexes whose columns are a strict prefix of
// another index on the same table.
func dropPrefixIndexes(ixs []*catalog.Index) []*catalog.Index {
	out := ixs[:0:0]
	for i, ix := range ixs {
		redundant := false
		for j, other := range ixs {
			if i == j || !strings.EqualFold(ix.Table, other.Table) || len(ix.Columns) >= len(other.Columns) {
				continue
			}
			match := true
			for k, c := range ix.Columns {
				if !strings.EqualFold(c, other.Columns[k]) {
					match = false
					break
				}
			}
			if match {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, ix)
		}
	}
	return out
}

// sortColsByNDV orders columns by decreasing NDV (ties alphabetical).
func sortColsByNDV(cols []string, ts *stats.TableStats) {
	sort.SliceStable(cols, func(i, j int) bool {
		if ts != nil {
			ci, cj := ts.Column(cols[i]), ts.Column(cols[j])
			if ci != nil && cj != nil && ci.NDV != cj.NDV {
				return ci.NDV > cj.NDV
			}
		}
		return cols[i] < cols[j]
	})
}

// NumTemplates returns the number of generated query templates; harnesses
// size their observation windows with it.
func (p *Product) NumTemplates() int { return len(p.templates) }

// ApplyDBAIndexes materializes the manual configuration on the database.
func (p *Product) ApplyDBAIndexes() error {
	for _, ix := range p.DBAIndexes {
		if _, err := p.DB.CreateIndex(ix.Materialized()); err != nil {
			return err
		}
	}
	return nil
}

// DropAllSecondaryIndexes removes every secondary index (the Fig. 3
// experiment's starting point).
func (p *Product) DropAllSecondaryIndexes() {
	for _, ix := range p.DB.Schema.Indexes() {
		p.DB.DropIndex(ix.Name)
	}
}

// SampleStatement draws one workload statement according to the product's
// read/write mix. It is safe to execute (inserts use fresh ids).
func (p *Product) SampleStatement(r *rand.Rand) string {
	if r.Float64() < p.Spec.Type.writeFraction() {
		return p.sampleWrite(r)
	}
	return p.sampleRead(r)
}

// SampleRead draws one read statement.
func (p *Product) SampleRead(r *rand.Rand) string { return p.sampleRead(r) }

// SampleMixed draws one statement with an explicit write fraction,
// overriding the spec's mix. Scenario generators use it to shift the
// read/write balance over time (a diurnal workload is read-heavy by day and
// write-heavy by night) while keeping the template population fixed.
func (p *Product) SampleMixed(r *rand.Rand, writeFraction float64) string {
	if r.Float64() < writeFraction {
		return p.sampleWrite(r)
	}
	return p.sampleRead(r)
}

func (p *Product) sampleRead(r *rand.Rand) string {
	// Weighted template choice.
	total := 0
	for _, t := range p.templates {
		total += t.weight
	}
	pick := r.Intn(total)
	var t template
	for _, cand := range p.templates {
		pick -= cand.weight
		if pick < 0 {
			t = cand
			break
		}
	}
	n := p.Spec.RowsPerTable
	eq := func(col string) string {
		switch col {
		case "c1":
			return fmt.Sprintf("%s = %d", col, r.Intn(max(5, n/10)))
		case "c2":
			return fmt.Sprintf("%s = %d", col, r.Intn(max(3, n/40)))
		case "c3":
			return fmt.Sprintf("%s = %d", col, r.Intn(n*2))
		case "c4":
			return fmt.Sprintf("%s = %d", col, r.Intn(100))
		default:
			return fmt.Sprintf("%s = 's%d'", col, r.Intn(12))
		}
	}
	var where []string
	for _, c := range t.eqCols {
		where = append(where, eq(c))
	}
	switch t.kind {
	case tmplEq:
		return fmt.Sprintf("SELECT id, c3, c5 FROM %s WHERE %s", t.table, strings.Join(where, " AND "))
	case tmplEqRange:
		lo := r.Intn(80)
		where = append(where, fmt.Sprintf("c4 BETWEEN %d AND %d", lo, lo+10+r.Intn(15)))
		return fmt.Sprintf("SELECT id, c5 FROM %s WHERE %s", t.table, strings.Join(where, " AND "))
	case tmplEqOrder:
		return fmt.Sprintf("SELECT id, c3 FROM %s WHERE %s ORDER BY c3 LIMIT %d",
			t.table, strings.Join(where, " AND "), 5+r.Intn(20))
	case tmplGroup:
		return fmt.Sprintf("SELECT c2, COUNT(*), SUM(c4) FROM %s WHERE c4 > %d GROUP BY c2", t.table, r.Intn(60))
	case tmplIn:
		return fmt.Sprintf("SELECT id, c4 FROM %s WHERE c5 IN ('s%d', 's%d', 's%d')",
			t.table, r.Intn(12), r.Intn(12), r.Intn(12))
	case tmplJoin2:
		return fmt.Sprintf(`SELECT a.id, b.c3 FROM %s a JOIN %s b ON b.c6 = a.c6 WHERE %s LIMIT 100`,
			t.table, t.joinWith, "a."+eqPrefix(where))
	case tmplJoin3:
		third := t.joinWith
		return fmt.Sprintf(`SELECT a.id FROM %s a JOIN %s b ON b.c6 = a.c6 JOIN %s c ON c.c6 = b.c6
			WHERE %s AND c.c4 < %d LIMIT 50`,
			t.table, t.joinWith, third, "a."+eqPrefix(where), 20+r.Intn(60))
	}
	return fmt.Sprintf("SELECT id FROM %s LIMIT 10", t.table)
}

// eqPrefix qualifies the first predicate with the alias prefix.
func eqPrefix(where []string) string {
	if len(where) == 0 {
		return "c4 < 50"
	}
	return where[0]
}

func (p *Product) sampleWrite(r *rand.Rand) string {
	table := tableName(r.Intn(p.Spec.Tables))
	n := p.Spec.RowsPerTable
	switch r.Intn(8) {
	case 0, 1: // insert
		id := p.nextID[table]
		p.nextID[table]++
		p.rows[table]++
		return fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d, %d, %d, 's%d', %d, %d)",
			table, id, r.Intn(max(5, n/10)), r.Intn(max(3, n/40)), r.Intn(n*2), r.Intn(100), r.Intn(12), r.Intn(max(5, n/8)), r.Intn(10000))
	case 2: // delete by pk
		return fmt.Sprintf("DELETE FROM %s WHERE id = %d", table, r.Int63n(p.nextID[table]))
	default: // update of the unindexed payload column by pk
		return fmt.Sprintf("UPDATE %s SET c7 = %d WHERE id = %d",
			table, r.Intn(10000), r.Int63n(p.nextID[table]))
	}
}

// Jaccard computes the Jaccard similarity of two index sets by identity
// key (table + ordered columns), as reported in Table II.
func Jaccard(a, b []*catalog.Index) float64 {
	sa := map[string]bool{}
	for _, ix := range a {
		sa[ix.Key()] = true
	}
	inter, union := 0, 0
	seen := map[string]bool{}
	for _, ix := range b {
		k := ix.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		union++
		if sa[k] {
			inter++
		}
	}
	for k := range sa {
		if !seen[k] {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
