// Package relsql is the SQL layer of the paper's SQL baselines (Table 1):
// the DiscoveryLink-style federation (fedsql) and the GUS-style warehouse
// query relstore tables through it. It parses and executes SELECT only.
// ANNODA itself does not speak SQL, and annoda-server does not link this
// package.
package relsql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/relstore"
)

// The dialect is one statement, the SELECT the baselines' users write:
//
//	SELECT [DISTINCT] item, ... FROM t [alias] [JOIN t2 [alias] ON cond]...
//	       [WHERE cond] [ORDER BY expr [DESC], ...] [LIMIT n]
//
// Identifiers are case-insensitive; strings use single quotes with ''
// escaping. Tables are declared as relstore.Schema values, not in SQL, and
// nothing here writes to them.

type sqlTokKind uint8

const (
	tkEOF sqlTokKind = iota
	tkIdent
	tkNumber
	tkString
	tkPunct // ( ) , . * = < > <= >= <> !=
)

type sqlTok struct {
	kind sqlTokKind
	text string // idents upper-cased for keywords kept raw; see raw
	raw  string
	pos  int
}

type sqlLexer struct {
	src  string
	pos  int
	toks []sqlTok
}

func sqlLex(src string) ([]sqlTok, error) {
	l := &sqlLexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, sqlTok{kind: tkEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, s)
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			l.toks = append(l.toks, l.lexNumber())
		case unicode.IsLetter(rune(c)) || c == '_':
			l.toks = append(l.toks, l.lexIdent())
		default:
			t, err := l.lexPunct()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, t)
		}
	}
}

func (l *sqlLexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

func (l *sqlLexer) lexString() (sqlTok, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return sqlTok{kind: tkString, text: sb.String(), raw: l.src[start:l.pos], pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return sqlTok{}, fmt.Errorf("sql: unterminated string at offset %d", start)
}

func (l *sqlLexer) lexNumber() sqlTok {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
		((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
		l.pos++
	}
	return sqlTok{kind: tkNumber, text: l.src[start:l.pos], raw: l.src[start:l.pos], pos: start}
}

func (l *sqlLexer) lexIdent() sqlTok {
	start := l.pos
	for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_') {
		l.pos++
	}
	raw := l.src[start:l.pos]
	return sqlTok{kind: tkIdent, text: strings.ToUpper(raw), raw: raw, pos: start}
}

func (l *sqlLexer) lexPunct() (sqlTok, error) {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		return sqlTok{kind: tkPunct, text: two, raw: two, pos: start}, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '*', '=', '<', '>', ';':
		l.pos++
		return sqlTok{kind: tkPunct, text: string(c), raw: string(c), pos: start}, nil
	}
	return sqlTok{}, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
}

type sqlParser struct {
	toks []sqlTok
	i    int
}

func (p *sqlParser) cur() sqlTok { return p.toks[p.i] }

func (p *sqlParser) accept(kw string) bool {
	t := p.cur()
	if (t.kind == tkIdent || t.kind == tkPunct) && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *sqlParser) expect(kw string) error {
	if !p.accept(kw) {
		return fmt.Errorf("sql: expected %q, got %q at offset %d", kw, p.cur().raw, p.cur().pos)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.cur()
	if t.kind != tkIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q at offset %d", t.raw, t.pos)
	}
	p.i++
	return t.raw, nil
}

// ParseSQL parses one SELECT statement. Any other statement is an error.
func ParseSQL(src string) (*SelectStmt, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	if !p.accept("SELECT") {
		return nil, fmt.Errorf("sql: only SELECT statements are supported, got %q", p.cur().raw)
	}
	st, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if p.cur().kind != tkEOF {
		return nil, fmt.Errorf("sql: trailing input at offset %d: %q", p.cur().pos, p.cur().raw)
	}
	return st, nil
}

func (p *sqlParser) parseLiteral() (relstore.Value, error) {
	t := p.cur()
	switch t.kind {
	case tkString:
		p.i++
		return relstore.Text(t.text), nil
	case tkNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return relstore.Null, fmt.Errorf("sql: bad number %q", t.text)
			}
			return relstore.Float(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return relstore.Null, fmt.Errorf("sql: bad number %q", t.text)
		}
		return relstore.Int(i), nil
	case tkIdent:
		switch t.text {
		case "NULL":
			p.i++
			return relstore.Null, nil
		case "TRUE":
			p.i++
			return relstore.Bool(true), nil
		case "FALSE":
			p.i++
			return relstore.Bool(false), nil
		}
	}
	return relstore.Null, fmt.Errorf("sql: expected literal, got %q at offset %d", t.raw, t.pos)
}

var sqlKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "JOIN": true, "ON": true,
	"ORDER": true, "BY": true, "LIMIT": true, "AND": true, "OR": true,
	"NOT": true, "LIKE": true, "IN": true, "IS": true, "NULL": true,
	"AS": true, "DESC": true, "ASC": true, "DISTINCT": true, "INNER": true,
	"TRUE": true, "FALSE": true,
}

func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	st := &SelectStmt{Limit: -1}
	st.Distinct = p.accept("DISTINCT")
	for {
		if p.accept("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			}
			st.Items = append(st.Items, item)
		}
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st.From = append(st.From, ref)
	for {
		if p.accept(",") {
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, r)
			continue
		}
		if p.accept("INNER") {
			if err := p.expect("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.accept("JOIN") {
			break
		}
		r, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		st.From = append(st.From, r)
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if st.Where == nil {
			st.Where = cond
		} else {
			st.Where = And{L: st.Where, R: cond}
		}
	}
	if p.accept("WHERE") {
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if st.Where == nil {
			st.Where = cond
		} else {
			st.Where = And{L: st.Where, R: cond}
		}
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			k := OrderKey{Expr: e}
			if p.accept("DESC") {
				k.Desc = true
			} else {
				p.accept("ASC")
			}
			st.OrderBy = append(st.OrderBy, k)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.accept("LIMIT") {
		t := p.cur()
		if t.kind != tkNumber {
			return nil, fmt.Errorf("sql: LIMIT needs a number")
		}
		p.i++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *sqlParser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	r := TableRef{Table: name}
	if p.accept("AS") {
		a, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		r.Alias = a
	} else if t := p.cur(); t.kind == tkIdent && !sqlKeywords[t.text] {
		p.i++
		r.Alias = t.raw
	}
	return r, nil
}

// Condition grammar: or := and (OR and)* ; and := unary (AND unary)* ;
// unary := NOT unary | '(' or ')' | predicate.
func (p *sqlParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseUnary() (Expr, error) {
	if p.accept("NOT") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	if p.accept("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parsePredicate()
}

func (p *sqlParser) parsePredicate() (Expr, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tkPunct {
		var op CmpOp
		switch t.text {
		case "=":
			op = OpEq
		case "<>", "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			return nil, fmt.Errorf("sql: expected comparison, got %q at offset %d", t.raw, t.pos)
		}
		p.i++
		r, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return Cmp{Op: op, L: l, R: r}, nil
	}
	neg := false
	if p.cur().kind == tkIdent && p.cur().text == "NOT" {
		p.i++
		neg = true
	}
	switch {
	case p.accept("LIKE"):
		s := p.cur()
		if s.kind != tkString {
			return nil, fmt.Errorf("sql: LIKE needs a string pattern")
		}
		p.i++
		return LikeExpr{E: l, Pattern: s.text, Neg: neg}, nil
	case p.accept("IN"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var items []relstore.Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			items = append(items, v)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return InList{E: l, Items: items, Neg: neg}, nil
	case p.accept("IS"):
		neg2 := p.accept("NOT")
		if err := p.expect("NULL"); err != nil {
			return nil, err
		}
		return IsNull{E: l, Neg: neg2}, nil
	}
	if neg {
		return nil, fmt.Errorf("sql: dangling NOT at offset %d", t.pos)
	}
	return nil, fmt.Errorf("sql: expected predicate operator after %s", l)
}

// parseOperand parses a column reference (possibly table-qualified) or a
// literal.
func (p *sqlParser) parseOperand() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkString, tkNumber:
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return Lit{V: v}, nil
	case tkIdent:
		if t.text == "NULL" || t.text == "TRUE" || t.text == "FALSE" {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			return Lit{V: v}, nil
		}
		name, _ := p.ident()
		if p.accept(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return Col{Table: name, Name: col}, nil
		}
		return Col{Name: name}, nil
	}
	return nil, fmt.Errorf("sql: expected operand, got %q at offset %d", t.raw, t.pos)
}

// Run parses a SELECT and executes it against db.
func Run(db *relstore.DB, src string) (*ResultSet, error) {
	st, err := ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return Exec(db, st)
}
