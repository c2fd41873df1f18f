package sqlparser_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"aim/internal/scenarios"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
	"aim/internal/workloads/job"
	"aim/internal/workloads/products"
	"aim/internal/workloads/tpch"
)

// digestCases are statements whose templates take a rule of NewTemplate's
// beyond plain extraction: folded and synthesized unary minus, keyword
// literals, LIMIT counts, each Bypass reason, DDL, and literals or text the
// parser refuses.
var digestCases = []string{
	"SELECT score, day FROM events WHERE id = 4711",
	"SELECT id, score FROM events WHERE user_id = 42",
	"UPDATE events SET note = 'n7' WHERE id = 4711",
	"SELECT kind, COUNT(*), SUM(score) FROM events WHERE day BETWEEN 10 AND 10 + 1 GROUP BY kind",
	"select e.id from events e join users u on u.id = e.user_id where u.tier = 3 limit 5",
	"SELECT a FROM t WHERE b = -5 AND c = - -2.5 AND d = -(3)",
	"SELECT a FROM t WHERE b = -(c + 1) AND d = -'x' AND e = -(-(7))",
	"SELECT a FROM t WHERE b = -NULL AND c = -TRUE AND d = 0",
	"UPDATE t SET a = NULL, b = TRUE, c = FALSE WHERE id = 3",
	"SELECT a FROM t WHERE b IS NULL AND c IS NOT NULL AND d = 'q'",
	"SELECT a FROM t WHERE b > 1.5e3 ORDER BY a LIMIT 10 OFFSET 20",
	"SELECT a FROM t WHERE b IN (1, -2, 'x') AND c = 4",
	"SELECT a FROM t WHERE 5 IN (b, 3) AND b NOT LIKE 'ab%'",
	"INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
	"INSERT INTO t VALUES (1, -2.5, 'it''s', NULL)",
	"SELECT a, 1 FROM t WHERE b = 2",
	"SELECT a FROM t WHERE b = ? AND c = 1",
	"DELETE FROM t WHERE a BETWEEN -1 AND 10",
	"SELECT COUNT(*) FROM t WHERE a = 99999999999999999999",
	"SELECT a FROM t WHERE b = 1e999",
	"SELECT a FROM t LIMIT 99999999999999999999",
	"CREATE TABLE t (a VARCHAR(16), PRIMARY KEY (a))",
	"CREATE INDEX ix ON t (a, b)",
	"SELECT a FROM t WHERE b <> 5 AND c <=> 6;",
	"SELECT a FROM t WHERE b = 'unterminated",
	"SELECT a FROM t WHERE b = 1 LIMIT 2.5",
}

// generatorStatements draws statements from every generator in the repo:
// the JOB and TPC-H query sets, a product's read/write mix and each
// scenario's stream.
func generatorStatements(tb testing.TB) []string {
	tb.Helper()
	out := append(job.Queries(1), tpch.Queries(1)...)
	r := rand.New(rand.NewSource(1))
	p, err := products.Build(products.Spec{Name: "Digest", Tables: 4, JoinQueries: 8, Type: products.Balanced, TargetDBA: 6, RowsPerTable: 50, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		out = append(out, p.SampleStatement(r))
	}
	for _, sc := range scenarios.All() {
		if _, err := sc.Setup(r); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			out = append(out, sc.Statement(i*sc.Profile().Cycles/20, r))
		}
	}
	return out
}

// TestDigestEqualsParseOnGenerators holds the digest path to the parse path
// on every generator's statements, whatever their length.
func TestDigestEqualsParseOnGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, sql := range append(generatorStatements(t), digestCases...) {
		checkDigest(t, sql, r)
	}
}

// FuzzDigestEqualsParse holds the digest path to the parse path: on every
// input, ParseShape gives Parse → NewTemplate's template, and the shape it
// learns gives every respelling with the same digest the template — text,
// tree, parameters (kind and value), bypass and statement kind — that
// Parse → NewTemplate gives it. A respelling that keeps each literal's kind
// must keep the digest. Inputs are bounded (96 bytes) so that the
// fuzzer's minimization of a long input does not stall the run.
func FuzzDigestEqualsParse(f *testing.F) {
	for _, sql := range append(generatorStatements(f), digestCases...) {
		if len(sql) <= 96 {
			f.Add(sql, int64(len(sql)))
		}
	}
	f.Fuzz(func(t *testing.T, sql string, seed int64) {
		if len(sql) > 96 {
			return
		}
		checkDigest(t, sql, rand.New(rand.NewSource(seed)))
	})
}

// checkDigest is one digest-path-equals-parse-path check: sql itself, then
// three respellings of it that keep its literals' kinds and three that mix
// them.
func checkDigest(t *testing.T, sql string, r *rand.Rand) {
	t.Helper()
	var d sqlparser.Digest
	scanned := d.Scan(sql)
	stmt, err := sqlparser.Parse(sql)
	if !scanned && err == nil {
		t.Fatalf("%q parses but does not scan", sql)
	}
	_, got, shape, gotErr := sqlparser.ParseShape(sql, len(d.Lits))
	if fmt.Sprint(gotErr) != fmt.Sprint(err) {
		t.Fatalf("%q: ParseShape fails with %v, Parse with %v", sql, gotErr, err)
	}
	if err != nil {
		return
	}
	sameTemplate(t, sql, got, sqlparser.NewTemplate(stmt))
	cacheable := scanned && got.Bypass == ""
	switch stmt.(type) {
	case *sqlparser.CreateTable, *sqlparser.CreateIndex, *sqlparser.DropIndex:
		cacheable = false
	}
	if (shape != nil) != cacheable {
		t.Fatalf("%q: shape %v, want one: %v", sql, shape != nil, cacheable)
	}
	if shape == nil {
		return
	}
	for i := 0; i < 6; i++ {
		mixKinds := i >= 3
		sib := sqlparser.Respell(sql, r, mixKinds)
		var ds sqlparser.Digest
		if !ds.Scan(sib) {
			t.Fatalf("%q respelled as %q does not scan", sql, sib)
		}
		if !bytes.Equal(ds.Key, d.Key) {
			if mixKinds {
				continue
			}
			t.Fatalf("%q respelled as %q: digest %q, want %q", sql, sib, ds.Key, d.Key)
		}
		sibStmt, err := sqlparser.Parse(sib)
		if err != nil {
			t.Fatalf("%q respelled as %q: %v", sql, sib, err)
		}
		sameTemplate(t, sib, sqlparser.Template{Text: shape.Text, Stmt: shape.Stmt, Params: shape.Params(ds.Lits)}, sqlparser.NewTemplate(sibStmt))
	}
}

// sameTemplate fails unless the digest path's template is the parse path's.
func sameTemplate(t *testing.T, sql string, got, want sqlparser.Template) {
	t.Helper()
	if got.Text != want.Text || got.Bypass != want.Bypass {
		t.Fatalf("%q: template %q bypass %q, want %q bypass %q", sql, got.Text, got.Bypass, want.Text, want.Bypass)
	}
	if !reflect.DeepEqual(got.Stmt, want.Stmt) {
		t.Fatalf("%q: template trees differ: %T, want %T", sql, got.Stmt, want.Stmt)
	}
	if !reflect.DeepEqual(got.Params, want.Params) {
		t.Fatalf("%q: params %v, want %v", sql, got.Params, want.Params)
	}
}

// TestStringLiteralsAreOneCopy pins that a string literal is built once, tag
// and payload in one allocation, on the digest path and the parse path, and
// that neither aliases the statement text: a stored INSERT row must not pin
// the whole SQL string.
func TestStringLiteralsAreOneCopy(t *testing.T) {
	const sql = "INSERT INTO t VALUES (1, 'it''s', 'plain', 2.5)"
	var d sqlparser.Digest
	d.Scan(sql) // warm the buffers
	if allocs := testing.AllocsPerRun(100, func() { d.Scan(sql) }); allocs != 2 {
		t.Errorf("Scan allocates %v times, want one per string literal: 2", allocs)
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	parsed := sqlparser.NewTemplate(stmt).Params
	want := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("it's"), sqltypes.NewString("plain"), sqltypes.NewFloat(2.5)}
	for _, got := range [][]sqltypes.Value{d.Lits, parsed} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("literals %v, want %v", got, want)
		}
		for _, v := range got[1:3] {
			p, lo := uintptr(unsafe.Pointer(unsafe.StringData(v.Str()))), uintptr(unsafe.Pointer(unsafe.StringData(sql)))
			if p >= lo && p < lo+uintptr(len(sql)) {
				t.Fatalf("%v aliases the statement text", v)
			}
		}
	}
}
