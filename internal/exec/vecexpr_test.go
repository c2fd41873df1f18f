package exec

import (
	"math"
	"testing"

	"aim/internal/catalog"
	"aim/internal/sqlparser"
	"aim/internal/sqltypes"
)

// kernelPalette is what a fuzzed batch row, outer value or literal holds:
// every kind, the values that tie across kinds (1, TRUE, 1.0, '1'), NaN, and
// strings that are LIKE patterns.
var kernelPalette = []sqltypes.Value{
	sqltypes.Null, sqltypes.NewInt(-1), sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(12),
	sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.NewFloat(0.5), sqltypes.NewFloat(1),
	sqltypes.NewFloat(math.NaN()), sqltypes.NewString(""), sqltypes.NewString("1%"), sqltypes.NewString("12"),
	sqltypes.NewString("_2"), sqltypes.NewBytes([]byte("1")), sqltypes.NewBytes([]byte("a_")),
}

// kernelGen reads a predicate over the batch column t.c, the batch constant
// o.o (the outer row's column) and palette literals from fuzz bytes; an
// exhausted input reads zeros.
type kernelGen struct{ b []byte }

func (g *kernelGen) next() int {
	if len(g.b) == 0 {
		return 0
	}
	v := int(g.b[0])
	g.b = g.b[1:]
	return v
}

func (g *kernelGen) operand() sqlparser.Expr {
	switch v := g.next(); v % 4 {
	case 0:
		return &sqlparser.ColumnRef{Table: "t", Column: "c"}
	case 1:
		return &sqlparser.ColumnRef{Table: "o", Column: "o"}
	default:
		return &sqlparser.Literal{Val: kernelPalette[v/4%len(kernelPalette)]}
	}
}

// pred reads a shape byte: its low four bits pick the shape, bit 4 is NOT
// for BETWEEN, IN, LIKE and IS NULL.
func (g *kernelGen) pred(depth int) sqlparser.Expr {
	b := g.next()
	op, not := b%16, b&16 != 0
	if depth >= 3 {
		op %= 12 // no deeper AND/OR/NOT
	}
	switch op {
	case 0, 1, 2, 3, 4, 5, 6:
		ops := []string{"=", "!=", "<", "<=", ">", ">=", "<=>"}
		return &sqlparser.BinaryExpr{Op: ops[op], Left: g.operand(), Right: g.operand()}
	case 7:
		return &sqlparser.BetweenExpr{Left: g.operand(), Low: g.operand(), High: g.operand(), Not: not}
	case 8:
		in := &sqlparser.InExpr{Left: g.operand(), Not: not}
		for n := 1 + g.next()%4; n > 0; n-- {
			in.List = append(in.List, &sqlparser.Literal{Val: kernelPalette[g.next()%len(kernelPalette)]})
		}
		return in
	case 9:
		return &sqlparser.LikeExpr{Left: g.operand(), Pattern: g.operand(), Not: not}
	case 10:
		return &sqlparser.IsNullExpr{Left: g.operand(), Not: not}
	case 11:
		return g.operand()
	case 12:
		return &sqlparser.BinaryExpr{Op: "AND", Left: g.pred(depth + 1), Right: g.pred(depth + 1)}
	case 13:
		return &sqlparser.BinaryExpr{Op: "OR", Left: g.pred(depth + 1), Right: g.pred(depth + 1)}
	default:
		return &sqlparser.NotExpr{Inner: g.pred(depth + 1)}
	}
}

// FuzzVecKernels holds every batch kernel lane to the compiled row closure,
// the definition of the predicate's value. The input (at most 96 bytes: the
// minimizer's work is quadratic in it) is the outer row's value, the batch
// (one palette value per byte, the row selected unless bit 4 is set), then a
// predicate of comparisons, BETWEEN, IN, LIKE, IS NULL, bare operands and
// AND/OR/NOT over them.
func FuzzVecKernels(f *testing.F) {
	outerT, err := catalog.NewTable("o", []catalog.Column{{Name: "o", Type: sqltypes.KindInt}}, []string{"o"})
	if err != nil {
		f.Fatal(err)
	}
	batchT, err := catalog.NewTable("t", []catalog.Column{{Name: "c", Type: sqltypes.KindInt}}, []string{"c"})
	if err != nil {
		f.Fatal(err)
	}
	l := NewLayout([]Instance{{Alias: "o", Table: outerT}, {Alias: "t", Table: batchT}})
	sc := scope{l: l, base: 1, n: 1}

	// The outer value, the row count less one, the rows (the whole palette,
	// three of them unselected), then the predicate.
	rows := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 19, 24, 29}
	for _, pred := range [][]byte{
		{0, 0, 14},                                // t.c = 1
		{12, 4, 0, 34, 6, 1, 0},                   // t.c > 1.0 AND o.o <=> t.c
		{13, 8, 0, 2, 4, 0, 12, 25, 0, 1},         // t.c IN (12, NULL, '12') OR t.c NOT LIKE o.o
		{14, 7, 0, 1, 18},                         // NOT (t.c BETWEEN o.o AND 12)
		{12, 26, 0, 11, 0},                        // t.c IS NOT NULL AND t.c
		{13, 2, 6, 0, 12, 14, 0, 0, 22, 18, 2, 0}, // -1 < t.c OR (NOT (t.c = TRUE) AND NULL < t.c)
	} {
		for _, outer := range []byte{0, 3, 11} { // NULL, 1, '1%'
			f.Add(append(append([]byte{outer, byte(len(rows) - 1)}, rows...), pred...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 96 {
			return
		}
		outer := kernelPalette[int(data[0])%len(kernelPalette)]
		n := 1 + int(data[1])%24
		if len(data) < 2+n {
			return
		}
		rows := make([]sqltypes.Row, n)
		var sel []int32
		for i, b := range data[2 : 2+n] {
			rows[i] = sqltypes.Row{kernelPalette[int(b)%len(kernelPalette)]}
			if b&16 == 0 {
				sel = append(sel, int32(i))
			}
		}
		g := &kernelGen{b: data[2+n:]}
		e := g.pred(0)
		closure, err := Compile(e, l, nil)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e.SQL(), err)
		}
		kernel := compileVec(e, sc)
		if kernel == nil {
			t.Fatalf("no kernel for %s", e.SQL())
		}
		env := []sqltypes.Value{outer}
		out := make([]int8, n)
		kernel(&batchArena{}, env, rows, sel, out)
		for _, i := range sel {
			v, err := closure([]sqltypes.Value{outer, rows[i][0]})
			if err != nil {
				t.Fatalf("%s: closure error %v", e.SQL(), err)
			}
			want := triNull
			if !v.IsNull() {
				want = boolTri(v.Bool())
			}
			if out[i] != want {
				t.Fatalf("%s with o = %v, c = %v: kernel lane %d, closure %v", e.SQL(), outer, rows[i][0], out[i], v)
			}
		}
	})
}
