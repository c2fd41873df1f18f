package sqlparser

import (
	"math/rand"
	"strconv"
	"strings"
)

// Respell writes sql, which must lex, as another statement: its tokens one
// space apart, keywords in a random case and every expression literal another
// value — of the same kind, so that the digest stays, unless mixKinds.
func Respell(sql string, r *rand.Rand, mixKinds bool) string {
	toks, err := lexAll(sql)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	count := false
	for _, t := range toks[:len(toks)-1] {
		if mixKinds && (t.kind == tokInt && !count || t.kind == tokFloat || t.kind == tokString) {
			t.kind = []tokenKind{tokInt, tokFloat, tokString}[r.Intn(3)]
		}
		switch {
		case t.kind == tokKeyword && r.Intn(2) == 0:
			b.WriteString(strings.ToLower(t.text))
		case t.kind == tokInt && !count:
			b.WriteString(strconv.Itoa([]int{0, 1, 7, 4711, 1 << 40}[r.Intn(5)]))
		case t.kind == tokFloat:
			b.WriteString([]string{"0.0", "2.5", "1.", ".25", "3e2", "1.5E-3"}[r.Intn(6)])
		case t.kind == tokString:
			b.WriteString([]string{"''", "'x'", "'it''s'", "''''", "'tl;dr -- ?'"}[r.Intn(5)])
		default:
			b.WriteString(t.text)
		}
		b.WriteByte(' ')
		count = t.kind == tokKeyword && (t.text == "LIMIT" || t.text == "OFFSET")
	}
	return b.String()
}
