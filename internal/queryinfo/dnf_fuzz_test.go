package queryinfo

import (
	"fmt"
	"math/rand"
	"testing"

	"aim/internal/exec"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// genBoolExpr generates a random small boolean WHERE expression over
// t1.col1..col4 — shared by the property test and the fuzz target.
func genBoolExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(3) == 0 {
		col := fmt.Sprintf("col%d", 1+r.Intn(4))
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf("%s = %d", col, r.Intn(4))
		case 1:
			return fmt.Sprintf("%s > %d", col, r.Intn(4))
		case 2:
			return fmt.Sprintf("%s IN (%d, %d)", col, r.Intn(4), r.Intn(4))
		default:
			return fmt.Sprintf("%s BETWEEN %d AND %d", col, r.Intn(3), 2+r.Intn(3))
		}
	}
	op := "AND"
	if r.Intn(2) == 0 {
		op = "OR"
	}
	left, right := genBoolExpr(r, depth-1), genBoolExpr(r, depth-1)
	e := "(" + left + " " + op + " " + right + ")"
	if r.Intn(5) == 0 {
		e = "NOT " + e
	}
	return e
}

// checkDNFEquivalence asserts that the OR-of-ANDs reconstruction of
// DNF(where) evaluates identically to the original expression on `rows`
// random rows. The caller must have excluded the oversized-expansion
// fallback, which is deliberately an over-approximation.
func checkDNFEquivalence(t *testing.T, layout *exec.Layout, whereSQL string, where sqlparser.Expr, r *rand.Rand, rows int) {
	t.Helper()
	factors := DNF(where)

	// Reconstruct OR of ANDs.
	var rebuilt sqlparser.Expr
	for _, factor := range factors {
		var conj sqlparser.Expr
		for _, atom := range factor {
			if conj == nil {
				conj = atom
			} else {
				conj = &sqlparser.BinaryExpr{Op: "AND", Left: conj, Right: atom}
			}
		}
		if rebuilt == nil {
			rebuilt = conj
		} else {
			rebuilt = &sqlparser.BinaryExpr{Op: "OR", Left: rebuilt, Right: conj}
		}
	}
	evalBool := func(ce exec.CompiledExpr, env []sqltypes.Value) bool {
		v, err := ce(env)
		if err != nil {
			t.Fatal(err)
		}
		return !v.IsNull() && v.Bool()
	}
	orig, err := exec.Compile(where, layout, nil)
	if err != nil {
		t.Fatalf("%s: %v", whereSQL, err)
	}
	re, err := exec.Compile(rebuilt, layout, nil)
	if err != nil {
		t.Fatalf("rebuilt %s: %v", rebuilt.SQL(), err)
	}
	env := make([]sqltypes.Value, layout.Width)
	for row := 0; row < rows; row++ {
		for i := range env {
			env[i] = sqltypes.NewInt(int64(r.Intn(5)))
		}
		if evalBool(orig, env) != evalBool(re, env) {
			t.Fatalf("DNF changed semantics for %s on %v\nfactors: %d", whereSQL, env, len(factors))
		}
	}
}

// TestDNFSemanticEquivalenceProperty: for random small boolean expressions,
// the OR-of-ANDs reconstruction of queryinfo.DNF must evaluate identically
// to the original expression on random rows. (The fallback path for
// oversized expansions is an over-approximation and is excluded by keeping
// the generated expressions small.)
func TestDNFSemanticEquivalenceProperty(t *testing.T) {
	schema := testSchema(t)
	layout := exec.NewLayout([]exec.Instance{{Alias: "t1", Table: schema.Table("t1")}})

	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		whereSQL := genBoolExpr(r, 2)
		stmt, err := sqlparser.Parse("SELECT col1 FROM t1 WHERE " + whereSQL)
		if err != nil {
			t.Fatalf("%s: %v", whereSQL, err)
		}
		checkDNFEquivalence(t, layout, whereSQL, stmt.(*sqlparser.Select).Where, r, 30)
	}
}

// FuzzDNFSemanticEquivalence is the §III-E DNF-rewrite fuzz target run by
// `make fuzzsmoke`: the fuzzer explores (seed, depth) pairs, each deriving
// one random boolean expression, and the same equivalence property must
// hold. Expressions whose expansion overflows DNFLimit take the documented
// over-approximation fallback and are skipped (the white-box dnf call
// mirrors DNF's own decision).
func FuzzDNFSemanticEquivalence(f *testing.F) {
	schema := testSchema(f)
	layout := exec.NewLayout([]exec.Instance{{Alias: "t1", Table: schema.Table("t1")}})

	f.Add(int64(77), uint8(2))
	f.Add(int64(1), uint8(0))
	f.Add(int64(-42), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		r := rand.New(rand.NewSource(seed))
		whereSQL := genBoolExpr(r, int(depth%4))
		stmt, err := sqlparser.Parse("SELECT col1 FROM t1 WHERE " + whereSQL)
		if err != nil {
			t.Fatalf("generator produced unparsable SQL %q: %v", whereSQL, err)
		}
		where := stmt.(*sqlparser.Select).Where
		if out, ok := dnf(where, false); !ok || len(out) > DNFLimit {
			t.Skip("expansion takes the over-approximation fallback")
		}
		checkDNFEquivalence(t, layout, whereSQL, where, r, 10)
	})
}
