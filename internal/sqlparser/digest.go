package sqlparser

import "aim/internal/sqltypes"

// Digest is a statement read in one pass over its tokens, without a parse, as
// MySQL's statement digest reads it. Key is every token as the parser sees it
// but the expression literals, each of which becomes its kind, so two
// statements share a Key exactly when their tokens differ only in those
// literals' values; Lits holds the values in the order they are written. A LIMIT or
// OFFSET count is part of the template text, so it stays in Key.
type Digest struct {
	Key  []byte
	Lits []sqltypes.Value
}

// Scan reads sql into d, reusing its buffers, and reports whether it could:
// not when sql does not lex or a literal does not parse. Parse fails on every
// statement Scan refuses.
func (d *Digest) Scan(sql string) bool {
	d.Key, d.Lits = d.Key[:0], d.Lits[:0]
	l := lexer{src: sql}
	count := false // the previous token was LIMIT or OFFSET
	for {
		t, err := l.next()
		if err != nil {
			return false
		}
		literal := t.kind == tokInt && !count || t.kind == tokFloat || t.kind == tokString
		switch {
		case t.kind == tokEOF:
			return true
		case !literal:
			d.Key = append(d.Key, t.text...)
		default:
			v, err := t.value()
			if err != nil {
				return false
			}
			d.Lits = append(d.Lits, v)
			d.Key = append(d.Key, 0, byte(t.kind))
		}
		d.Key = append(d.Key, ' ')
		count = t.kind == tokKeyword && (t.text == "LIMIT" || t.text == "OFFSET")
	}
}

// source is where a value comes from in a statement of one shape: the
// digest's literal lit, negated when neg, or — lit < 0 — the constant val
// (NULL, TRUE, FALSE, the 0 a unary minus over a non-literal subtracts from).
type source struct {
	lit int
	neg bool
	val sqltypes.Value
}

// Shape is what parsing one statement teaches about every statement with its
// Digest.Key: its template's Text and Stmt, which are the same for all of
// them, and the source of each template parameter, which depends on the
// parse's structure alone. Stmt is shared: read only.
type Shape struct {
	Text    string
	Stmt    Statement
	sources []source
}

// ParseShape is Parse and NewTemplate on src, whose Digest holds lits
// literals, and also the Shape of src's digest — nil where no statement with
// the digest may run as the template: a Bypass, DDL, or a literal count that
// is not the digest's.
func ParseShape(src string, lits int) (Statement, Template, *Shape, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, Template{}, nil, err
	}
	p := &parser{toks: toks, from: map[*Literal]source{}}
	stmt, err := p.statement()
	if err != nil {
		return nil, Template{}, nil, err
	}
	r := &rewriter{from: p.from}
	out := r.statement(stmt)
	t := Template{Text: out.SQL(), Stmt: out, Params: r.params, Bypass: r.bypass}
	switch stmt.(type) {
	case *Select, *Insert, *Update, *Delete:
		if t.Bypass == "" && p.lits == lits && len(r.sources) == len(t.Params) {
			return stmt, t, &Shape{Text: t.Text, Stmt: t.Stmt, sources: r.sources}, nil
		}
	}
	return stmt, t, nil, nil
}

// Params is the template parameters of a statement with s's digest and the
// literals lits: what NewTemplate extracts from its parse.
func (s *Shape) Params(lits []sqltypes.Value) []sqltypes.Value {
	if len(s.sources) == 0 {
		return nil
	}
	out := make([]sqltypes.Value, len(s.sources))
	for i, src := range s.sources {
		switch {
		case src.lit < 0:
			out[i] = src.val
		case src.neg:
			out[i] = negate(lits[src.lit])
		default:
			out[i] = lits[src.lit]
		}
	}
	return out
}
