package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"aim/internal/sqltypes"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return (&parser{toks: toks}).statement()
}

type parser struct {
	toks         []token
	i            int
	placeholders int
	lits         int // expression literal tokens consumed
	// from, when not nil, records where each literal's value comes from:
	// what ParseShape learns about every statement sharing a digest.
	from map[*Literal]source
}

// statement parses the whole token stream as one statement.
func (p *parser) statement() (Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokOp && p.peek().text == ";" {
		p.advance()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: trailing input %q at offset %d", p.peek().text, p.peek().pos)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, found %q at offset %d", kw, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("sql: expected %q, found %q at offset %d", op, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected identifier, found %q at offset %d", t.text, t.pos)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDropIndex()
	default:
		return nil, fmt.Errorf("sql: unsupported statement starting with %q", p.peek().text)
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	if p.acceptKeyword("STRAIGHT_JOIN") {
		sel.StraightJoin = true
	}
	for {
		se, err := p.parseSelectExpr()
		if err != nil {
			return nil, err
		}
		sel.Exprs = append(sel.Exprs, se)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(sel); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = combineAnd(sel.Where, w)
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := &OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
		if p.acceptKeyword("OFFSET") {
			off, err := p.parseIntLiteral()
			if err != nil {
				return nil, err
			}
			sel.Offset = off
		}
	}
	return sel, nil
}

// parseFrom handles `t1 [AS a] (, t2 | [INNER|LEFT] JOIN t2 [AS b] ON expr)*`.
// JOIN ... ON conditions are folded into the WHERE conjunction; the
// distinction does not matter for this engine's inner-join-only semantics.
func (p *parser) parseFrom(sel *Select) error {
	tr, err := p.parseTableRef()
	if err != nil {
		return err
	}
	sel.Tables = append(sel.Tables, tr)
	for {
		switch {
		case p.acceptOp(","):
			tr, err := p.parseTableRef()
			if err != nil {
				return err
			}
			sel.Tables = append(sel.Tables, tr)
		case p.isKeyword("JOIN") || p.isKeyword("INNER") || p.isKeyword("LEFT") || p.isKeyword("STRAIGHT_JOIN"):
			if p.acceptKeyword("STRAIGHT_JOIN") {
				sel.StraightJoin = true
			} else {
				p.acceptKeyword("INNER")
				p.acceptKeyword("LEFT")
				if err := p.expectKeyword("JOIN"); err != nil {
					return err
				}
			}
			tr, err := p.parseTableRef()
			if err != nil {
				return err
			}
			sel.Tables = append(sel.Tables, tr)
			if p.acceptKeyword("ON") {
				cond, err := p.parseExpr()
				if err != nil {
					return err
				}
				sel.Where = combineAnd(sel.Where, cond)
			}
		default:
			return nil
		}
	}
}

func combineAnd(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinaryExpr{Op: "AND", Left: a, Right: b}
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	tr := &TableRef{Name: name}
	if p.acceptKeyword("AS") {
		tr.Alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	} else if p.peek().kind == tokIdent {
		tr.Alias = p.advance().text
	}
	return tr, nil
}

func (p *parser) parseSelectExpr() (*SelectExpr, error) {
	if p.acceptOp("*") {
		return &SelectExpr{Star: true}, nil
	}
	// t.* form: identifier '.' '*'
	if p.peek().kind == tokIdent && p.i+2 < len(p.toks) &&
		p.toks[p.i+1].kind == tokOp && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tokOp && p.toks[p.i+2].text == "*" {
		tbl := p.advance().text
		p.advance() // .
		p.advance() // *
		return &SelectExpr{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	se := &SelectExpr{Expr: e}
	if p.acceptKeyword("AS") {
		se.Alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	} else if p.peek().kind == tokIdent {
		se.Alias = p.advance().text
	}
	return se, nil
}

func (p *parser) parseIntLiteral() (int64, error) {
	t := p.peek()
	if t.kind != tokInt {
		return 0, fmt.Errorf("sql: expected integer, found %q at offset %d", t.text, t.pos)
	}
	p.advance()
	return strconv.ParseInt(t.text, 10, 64)
}

// Expression grammar (precedence low to high):
//
//	expr     := orExpr
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | predicate
//	predicate:= additive [compOp additive | [NOT] IN (...) | [NOT] BETWEEN x AND y
//	             | [NOT] LIKE pattern | IS [NOT] NULL]
//	additive := multexpr (('+'|'-') multexpr)*
//	multexpr := primary (('*'|'/'|'%') primary)*
//	primary  := literal | ? | column | func(args) | '(' expr ')' | '-' primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := false
	if p.isKeyword("NOT") {
		// lookahead for NOT IN / NOT BETWEEN / NOT LIKE
		save := p.i
		p.advance()
		if p.isKeyword("IN") || p.isKeyword("BETWEEN") || p.isKeyword("LIKE") {
			not = true
		} else {
			p.i = save
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{Left: left, Not: not}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKeyword("BETWEEN"):
		low, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		high, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Left: left, Low: low, High: high, Not: not}, nil
	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Left: left, Pattern: pat, Not: not}, nil
	case p.acceptKeyword("IS"):
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Left: left, Not: isNot}, nil
	}
	for _, op := range []string{"<=>", "<=", ">=", "!=", "=", "<", ">"} {
		if p.acceptOp(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "+", Left: left, Right: right}
		case p.acceptOp("-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "-", Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptOp("*"):
			op = "*"
		case p.acceptOp("/"):
			op = "/"
		case p.acceptOp("%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt, tokFloat, tokString:
		p.advance()
		v, err := t.value()
		if err != nil {
			return nil, err
		}
		lit := &Literal{Val: v}
		if p.from != nil {
			p.from[lit] = source{lit: p.lits}
		}
		p.lits++
		return lit, nil
	case tokPlaceholder:
		p.advance()
		ph := &Placeholder{Ordinal: p.placeholders}
		p.placeholders++
		return ph, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: sqltypes.Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(false)}, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %q at offset %d", t.text, t.pos)
	case tokOp:
		switch t.text {
		case "(":
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "-":
			p.advance()
			inner, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			if lit, ok := inner.(*Literal); ok && lit.Val.IsNumeric() {
				out := &Literal{Val: negate(lit.Val)}
				if src, ok := p.from[lit]; ok {
					p.from[out] = source{lit: src.lit, neg: !src.neg}
				}
				return out, nil
			}
			return &BinaryExpr{Op: "-", Left: &Literal{Val: sqltypes.NewInt(0)}, Right: inner}, nil
		}
		return nil, fmt.Errorf("sql: unexpected token %q at offset %d", t.text, t.pos)
	case tokIdent:
		p.advance()
		// Function call?
		if p.acceptOp("(") {
			fn := &FuncExpr{Name: strings.ToUpper(t.text)}
			if p.acceptOp("*") {
				fn.Star = true
			} else if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fn.Args = append(fn.Args, a)
					if !p.acceptOp(",") {
						break
					}
				}
				return fn, p.expectOp(")")
			} else {
				return fn, nil
			}
			return fn, p.expectOp(")")
		}
		// Qualified column?
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	default:
		return nil, fmt.Errorf("sql: unexpected end of input")
	}
}

func (p *parser) parseInsert() (*Insert, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		up.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *parser) parseDelete() (*Delete, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		del.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return del, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex()
	default:
		return nil, fmt.Errorf("sql: expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (*CreateTable, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Table: name}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, c)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ty, err := p.parseColumnType()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, ColumnDef{Name: col, Type: ty})
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(ct.PrimaryKey) == 0 {
		return nil, fmt.Errorf("sql: CREATE TABLE %s requires PRIMARY KEY", name)
	}
	return ct, nil
}

func (p *parser) parseColumnType() (sqltypes.Kind, error) {
	t := p.peek()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return 0, fmt.Errorf("sql: expected column type, found %q", t.text)
	}
	p.advance()
	switch strings.ToUpper(t.text) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return sqltypes.KindInt, nil
	case "FLOAT", "DOUBLE", "DECIMAL", "REAL":
		return sqltypes.KindFloat, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		// Optional length like VARCHAR(32).
		if p.acceptOp("(") {
			if _, err := p.parseIntLiteral(); err != nil {
				return 0, err
			}
			if err := p.expectOp(")"); err != nil {
				return 0, err
			}
		}
		return sqltypes.KindString, nil
	case "BOOL", "BOOLEAN":
		return sqltypes.KindBool, nil
	default:
		return 0, fmt.Errorf("sql: unknown column type %q", t.text)
	}
}

func (p *parser) parseCreateIndex() (*CreateIndex, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: table}
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, c)
		if !p.acceptOp(",") {
			break
		}
	}
	return ci, p.expectOp(")")
}

func (p *parser) parseDropIndex() (*DropIndex, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	// Optional "ON table" suffix, accepted and ignored (index names are
	// globally unique in this catalog).
	if p.acceptKeyword("ON") {
		if _, err := p.expectIdent(); err != nil {
			return nil, err
		}
	}
	return &DropIndex{Name: name}, nil
}

// negate is a unary minus folded into a numeric literal.
func negate(v sqltypes.Value) sqltypes.Value {
	if v.Kind() == sqltypes.KindInt {
		return sqltypes.NewInt(-v.Int())
	}
	return sqltypes.NewFloat(-v.Float())
}
