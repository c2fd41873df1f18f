// Package sqlparser implements a lexer and recursive-descent parser for the
// SQL dialect used throughout this repository, plus query normalization
// (parameterization) as defined in §III-A1 of the AIM paper.
//
// The dialect covers the statement shapes AIM reasons about: SELECT with
// joins, complex AND/OR filters, GROUP BY, ORDER BY and LIMIT; the DML
// statements INSERT/UPDATE/DELETE; and the DDL statements CREATE TABLE,
// CREATE INDEX and DROP INDEX.
package sqlparser

import (
	"fmt"
	"strconv"
	"unicode"

	"aim/internal/sqltypes"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokPlaceholder // ?
	tokOp          // operators and punctuation
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers, numbers and string bodies as written
	pos  int
}

// keywords recognized by the lexer, each under its upper-cased spelling.
// Identifiers matching these (case insensitive) are produced as tokKeyword
// with upper-cased text.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "ASC", "DESC", "AND",
		"OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL", "TRUE", "FALSE", "AS",
		"JOIN", "INNER", "LEFT", "ON", "DISTINCT", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
		"DELETE", "CREATE", "TABLE", "INDEX", "DROP", "PRIMARY", "KEY", "OFFSET", "STRAIGHT_JOIN",
	} {
		m[kw] = kw
	}
	return m
}()

// keyword returns the keyword text spells in any case, upper-cased, without
// allocating. Only ASCII letters fold: no other byte of an identifier
// upper-cases to one.
func keyword(text string) (string, bool) {
	var b [len("STRAIGHT_JOIN")]byte // the longest keyword
	if len(text) > len(b) {
		return "", false
	}
	for i := range len(text) {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b[i] = c
	}
	kw, ok := keywords[string(b[:len(text)])]
	return kw, ok
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...interface{}) error {
	return fmt.Errorf("sql: %s at offset %d", fmt.Sprintf(format, args...), pos)
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '?':
		l.pos++
		return token{kind: tokPlaceholder, text: "?", pos: start}, nil
	case c == '\'':
		return l.lexString()
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		return l.lexNumber()
	case isIdentStart(c):
		return l.lexIdent()
	default:
		return l.lexOp()
	}
}

// lexString reads a quoted string literal. Its token's text is the body
// as written, every quote still doubled; value builds the string from it.
func (l *lexer) lexString() (token, error) {
	start := l.pos
	for l.pos++; l.pos < len(l.src); l.pos++ {
		if l.src[l.pos] != '\'' {
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			l.pos++
			continue
		}
		l.pos++
		return token{kind: tokString, text: l.src[start+1 : l.pos-1], pos: start}, nil
	}
	return token{}, l.errf(start, "unterminated string literal")
}

// value is the value of a literal token: tokInt, tokFloat or tokString.
func (t token) value() (sqltypes.Value, error) {
	switch t.kind {
	case tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("sql: bad integer %q: %v", t.text, err)
		}
		return sqltypes.NewInt(v), nil
	case tokFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("sql: bad float %q: %v", t.text, err)
		}
		return sqltypes.NewFloat(v), nil
	default:
		return sqltypes.NewStringUnquoted(t.text), nil
	}
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	kind := tokInt
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		kind = tokFloat
		l.pos++
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		kind = tokFloat
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos >= len(l.src) || !isDigit(l.src[l.pos]) {
			return token{}, l.errf(start, "malformed exponent")
		}
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
	}
	return token{kind: kind, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if kw, ok := keyword(text); ok {
		return token{kind: tokKeyword, text: kw, pos: start}, nil
	}
	return token{kind: tokIdent, text: text, pos: start}, nil
}

func (l *lexer) lexOp() (token, error) {
	start := l.pos
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	if l.pos+3 <= len(l.src) && l.src[l.pos:l.pos+3] == "<=>" {
		l.pos += 3
		return token{kind: tokOp, text: "<=>", pos: start}, nil
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		l.pos += 2
		t := two
		if t == "<>" {
			t = "!="
		}
		return token{kind: tokOp, text: t, pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '(', ')', ',', '*', '+', '-', '/', '.', ';', '%':
		l.pos++
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", rune(c))
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
