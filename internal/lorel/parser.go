package lorel

import (
	"fmt"
	"strconv"
	"strings"
)

// Grammar (keywords case-insensitive):
//
//	query    := SELECT items FROM froms [WHERE or]
//	items    := item (',' item)*
//	item     := path [AS ident]
//	froms    := from (',' from)*
//	from     := path [ident]              -- trailing ident is the variable
//	or       := and (OR and)*
//	and      := unary (AND unary)*
//	unary    := NOT unary | '(' or ')' | pred
//	pred     := EXISTS path | operand cmp operand | operand LIKE string
//	operand  := literal | path
//	path     := ident steps
//	steps    := ('.' step)*
//	step     := ident | '%' | '#' | group
//	group    := '(' alt ('|' alt)* ')' [quant]
//	alt      := step ('.' step)*
//	quant    := '?' | '*' | '+'

type parser struct {
	toks []token
	i    int
}

// Parse parses a Lorel query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, fmt.Errorf("lorel: trailing input at offset %d: %s", p.cur().pos, p.cur())
	}
	return q, nil
}

// MustParse panics on error; for tests and fixed internal queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

func isKeyword(t token) bool {
	if t.kind != tIdent {
		return false
	}
	switch strings.ToLower(t.text) {
	case "select", "from", "where", "and", "or", "not", "exists", "like", "as", "true", "false":
		return true
	}
	return false
}

func (p *parser) parseQuery() (*Query, error) {
	if !p.keyword("select") {
		return nil, fmt.Errorf("lorel: expected SELECT, got %s", p.cur())
	}
	q := &Query{}
	for {
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Path: path}
		if p.keyword("as") {
			t := p.cur()
			if t.kind != tIdent {
				return nil, fmt.Errorf("lorel: expected label after AS, got %s", t)
			}
			p.i++
			item.Label = t.text
		}
		q.Select = append(q.Select, item)
		if p.cur().kind == tComma {
			p.i++
			continue
		}
		break
	}
	if !p.keyword("from") {
		return nil, fmt.Errorf("lorel: expected FROM, got %s", p.cur())
	}
	for {
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		f := FromClause{Path: path}
		if t := p.cur(); t.kind == tIdent && !isKeyword(t) {
			p.i++
			f.Var = t.text
		}
		q.From = append(q.From, f)
		if p.cur().kind == tComma {
			p.i++
			continue
		}
		break
	}
	if p.keyword("where") {
		cond, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = cond
	}
	return q, nil
}

func (p *parser) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = OrCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Cond, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = AndCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Cond, error) {
	if p.keyword("not") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return NotCond{E: e}, nil
	}
	if p.cur().kind == tLParen {
		// Could be a parenthesized condition. Try it; a path can also start
		// with '(' only inside steps, never as a whole operand, so '(' here
		// is always a condition group.
		p.i++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tRParen {
			return nil, fmt.Errorf("lorel: expected ), got %s", p.cur())
		}
		p.i++
		return e, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Cond, error) {
	if p.keyword("exists") {
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return ExistsCond{P: path}, nil
	}
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	var op CmpOp
	switch {
	case t.kind == tEq:
		op = OpEq
	case t.kind == tNe:
		op = OpNe
	case t.kind == tLt:
		op = OpLt
	case t.kind == tLe:
		op = OpLe
	case t.kind == tGt:
		op = OpGt
	case t.kind == tGe:
		op = OpGe
	case t.kind == tIdent && strings.EqualFold(t.text, "like"):
		op = OpLike
	default:
		// Bare path: existential test, as in "where X.Links".
		if l.Path != nil {
			return ExistsCond{P: *l.Path}, nil
		}
		return nil, fmt.Errorf("lorel: expected comparison operator, got %s", t)
	}
	p.i++
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if op == OpLike && (r.Lit == nil || r.Lit.Kind != LitString) {
		return nil, fmt.Errorf("lorel: LIKE requires a string pattern")
	}
	return CmpCond{Op: op, L: l, R: r}, nil
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case tString:
		p.i++
		return Operand{Lit: &Literal{Kind: LitString, S: t.text}}, nil
	case tInt:
		p.i++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("lorel: bad integer %q", t.text)
		}
		return Operand{Lit: &Literal{Kind: LitInt, I: v}}, nil
	case tReal:
		p.i++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("lorel: bad real %q", t.text)
		}
		return Operand{Lit: &Literal{Kind: LitReal, F: v}}, nil
	case tIdent:
		switch strings.ToLower(t.text) {
		case "true":
			p.i++
			return Operand{Lit: &Literal{Kind: LitBool, B: true}}, nil
		case "false":
			p.i++
			return Operand{Lit: &Literal{Kind: LitBool, B: false}}, nil
		}
		path, err := p.parsePath()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Path: &path}, nil
	}
	return Operand{}, fmt.Errorf("lorel: expected operand, got %s", t)
}

func (p *parser) parsePath() (Path, error) {
	t := p.cur()
	if t.kind != tIdent || isKeyword(t) {
		return Path{}, fmt.Errorf("lorel: expected path, got %s", t)
	}
	p.i++
	path := Path{Base: t.text}
	for p.cur().kind == tDot {
		p.i++
		step, err := p.parseStep()
		if err != nil {
			return Path{}, err
		}
		path.Steps = append(path.Steps, step)
	}
	return path, nil
}

func (p *parser) parseStep() (Step, error) {
	t := p.cur()
	switch t.kind {
	case tIdent:
		if isKeyword(t) {
			return nil, fmt.Errorf("lorel: keyword %q cannot be a label", t.text)
		}
		p.i++
		return LabelStep{Name: t.text}, nil
	case tPercent:
		p.i++
		return WildcardStep{}, nil
	case tHash:
		p.i++
		return AnyPathStep{}, nil
	case tLParen:
		p.i++
		g := GroupStep{}
		for {
			var alt []Step
			for {
				s, err := p.parseStep()
				if err != nil {
					return nil, err
				}
				alt = append(alt, s)
				if p.cur().kind == tDot {
					p.i++
					continue
				}
				break
			}
			g.Alternatives = append(g.Alternatives, alt)
			if p.cur().kind == tPipe {
				p.i++
				continue
			}
			break
		}
		if p.cur().kind != tRParen {
			return nil, fmt.Errorf("lorel: expected ) in path group, got %s", p.cur())
		}
		p.i++
		switch p.cur().kind {
		case tQuest:
			g.Quant = QOptional
			p.i++
		case tStar:
			g.Quant = QStar
			p.i++
		case tPlus:
			g.Quant = QPlus
			p.i++
		}
		return g, nil
	}
	return nil, fmt.Errorf("lorel: expected path step, got %s", t)
}
