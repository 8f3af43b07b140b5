package relstore

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// A small SQL subset, sufficient for the DiscoveryLink-style federation
// baseline and the GUS-style warehouse:
//
//	CREATE TABLE name (col type [PRIMARY KEY] [NOT NULL], ...)
//	CREATE INDEX ON table (col)
//	INSERT INTO table VALUES (v, ...), (v, ...)
//	SELECT [DISTINCT] item, ... FROM t [alias] [JOIN t2 [alias] ON cond]...
//	       [WHERE cond] [ORDER BY expr [DESC], ...] [LIMIT n]
//	DELETE FROM table [WHERE cond]
//
// Identifiers are case-insensitive; strings use single quotes with ''
// escaping.

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

// Stmt is a parsed SQL statement.
type Stmt interface{ isStmt() }

// CreateTableStmt creates a table.
type CreateTableStmt struct{ Schema Schema }

// CreateIndexStmt creates a secondary index.
type CreateIndexStmt struct {
	Table string
	Col   string
}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table string
	Rows  []Row
}

// DeleteStmt deletes rows matching Where (all rows if nil).
type DeleteStmt struct {
	Table string
	Where Expr
}

func (CreateTableStmt) isStmt() {}
func (CreateIndexStmt) isStmt() {}
func (InsertStmt) isStmt()      {}
func (DeleteStmt) isStmt()      {}
func (*SelectStmt) isStmt()     {}

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

// ParseSQL parses one SQL statement.
func ParseSQL(src string) (Stmt, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	var st Stmt
	switch {
	case p.accept("CREATE"):
		if p.accept("TABLE") {
			st, err = p.parseCreateTable()
		} else if p.accept("INDEX") {
			st, err = p.parseCreateIndex()
		} else {
			return nil, fmt.Errorf("sql: CREATE must be followed by TABLE or INDEX")
		}
	case p.accept("INSERT"):
		st, err = p.parseInsert()
	case p.accept("SELECT"):
		st, err = p.parseSelect()
	case p.accept("DELETE"):
		st, err = p.parseDelete()
	default:
		return nil, fmt.Errorf("sql: unknown statement starting with %q", p.cur().raw)
	}
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if p.cur().kind != tkEOF {
		return nil, fmt.Errorf("sql: trailing input at offset %d: %q", p.cur().pos, p.cur().raw)
	}
	return st, nil
}

func (p *sqlParser) parseCreateTable() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	s := Schema{Name: name}
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		typName, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct, err := ParseColType(typName)
		if err != nil {
			return nil, err
		}
		col := Column{Name: colName, Type: ct, Nullable: true}
		for {
			if p.accept("PRIMARY") {
				if err := p.expect("KEY"); err != nil {
					return nil, err
				}
				s.Key = colName
				col.Nullable = false
				continue
			}
			if p.accept("NOT") {
				if err := p.expect("NULL"); err != nil {
					return nil, err
				}
				col.Nullable = false
				continue
			}
			break
		}
		s.Columns = append(s.Columns, col)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return CreateTableStmt{Schema: s}, nil
}

func (p *sqlParser) parseCreateIndex() (Stmt, error) {
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return CreateIndexStmt{Table: table, Col: col}, nil
}

func (p *sqlParser) parseInsert() (Stmt, error) {
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	st := InsertStmt{Table: table}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row Row
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.accept(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *sqlParser) parseLiteral() (Value, error) {
	t := p.cur()
	switch t.kind {
	case tkString:
		p.i++
		return Text(t.text), nil
	case tkNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Null, fmt.Errorf("sql: bad number %q", t.text)
			}
			return Float(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("sql: bad number %q", t.text)
		}
		return Int(i), nil
	case tkIdent:
		switch t.text {
		case "NULL":
			p.i++
			return Null, nil
		case "TRUE":
			p.i++
			return Bool(true), nil
		case "FALSE":
			p.i++
			return Bool(false), nil
		}
	}
	return Null, fmt.Errorf("sql: expected literal, got %q at offset %d", t.raw, t.pos)
}

func (p *sqlParser) parseDelete() (Stmt, error) {
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := DeleteStmt{Table: table}
	if p.accept("WHERE") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

var sqlKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "JOIN": true, "ON": true,
	"ORDER": true, "BY": true, "LIMIT": true, "AND": true, "OR": true,
	"NOT": true, "LIKE": true, "IN": true, "IS": true, "NULL": true,
	"AS": true, "DESC": true, "ASC": true, "DISTINCT": true, "INNER": true,
	"TRUE": true, "FALSE": true,
}

func (p *sqlParser) parseSelect() (Stmt, error) {
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
		var items []Value
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

// Run parses and executes a statement against the database. SELECTs return
// a ResultSet; DDL/DML return nil.
func (db *DB) Run(src string) (*ResultSet, error) {
	st, err := ParseSQL(src)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case CreateTableStmt:
		_, err := db.Create(s.Schema)
		return nil, err
	case CreateIndexStmt:
		t := db.Table(s.Table)
		if t == nil {
			return nil, fmt.Errorf("sql: no table %q", s.Table)
		}
		return nil, t.CreateIndex(s.Col)
	case InsertStmt:
		t := db.Table(s.Table)
		if t == nil {
			return nil, fmt.Errorf("sql: no table %q", s.Table)
		}
		for _, r := range s.Rows {
			if _, err := t.Insert(r); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case DeleteStmt:
		t := db.Table(s.Table)
		if t == nil {
			return nil, fmt.Errorf("sql: no table %q", s.Table)
		}
		schema := t.Schema()
		var doomed []RowID
		var evalErr error
		t.Scan(func(rid RowID, row Row) bool {
			if s.Where == nil {
				doomed = append(doomed, rid)
				return true
			}
			env := MapEnv{}
			for i, c := range schema.Columns {
				env[strings.ToLower(c.Name)] = row[i]
				env[strings.ToLower(schema.Name+"."+c.Name)] = row[i]
			}
			ok, err := evalBool(s.Where, env)
			if err != nil {
				evalErr = err
				return false
			}
			if ok {
				doomed = append(doomed, rid)
			}
			return true
		})
		if evalErr != nil {
			return nil, evalErr
		}
		for _, rid := range doomed {
			t.Delete(rid)
		}
		return nil, nil
	case *SelectStmt:
		return db.Exec(s)
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", st)
}
