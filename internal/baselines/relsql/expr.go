package relsql

import (
	"fmt"
	"strings"

	"repro/internal/relstore"
)

// Expr is a boolean/scalar expression evaluated against an Env (a binding of
// qualified column names to values). Expressions power WHERE clauses, ON
// conditions and projections.
type Expr interface {
	Eval(env Env) (relstore.Value, error)
	String() string
}

// Env resolves column references during evaluation.
type Env interface {
	// Lookup returns the value bound to (qualifier, column). qualifier may
	// be "" meaning "any table that has this column, if unambiguous".
	Lookup(qualifier, column string) (relstore.Value, error)
}

// Lit is a literal value.
type Lit struct{ V relstore.Value }

// Eval implements Expr.
func (l Lit) Eval(Env) (relstore.Value, error) { return l.V, nil }

func (l Lit) String() string {
	if l.V.Type == relstore.TText {
		return "'" + strings.ReplaceAll(l.V.S, "'", "''") + "'"
	}
	return l.V.String()
}

// Col references a column, optionally qualified by table name or alias.
type Col struct {
	Table string
	Name  string
}

// Eval implements Expr.
func (c Col) Eval(env Env) (relstore.Value, error) { return env.Lookup(c.Table, c.Name) }

func (c Col) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpNames = [...]string{"=", "<>", "<", "<=", ">", ">="}

func (o CmpOp) String() string { return cmpNames[o] }

// Cmp compares two sub-expressions. Comparisons involving NULL are false
// (three-valued logic collapsed to boolean, sufficient for this engine).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(env Env) (relstore.Value, error) {
	l, err := c.L.Eval(env)
	if err != nil {
		return relstore.Null, err
	}
	r, err := c.R.Eval(env)
	if err != nil {
		return relstore.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return relstore.Bool(false), nil
	}
	// Values of incompatible types compare false for = and true for <>.
	comparable := (isNum(l) && isNum(r)) || l.Type == r.Type ||
		(l.Type == relstore.TText || r.Type == relstore.TText)
	if !comparable {
		return relstore.Bool(c.Op == OpNe), nil
	}
	// Text vs non-text: try numeric parse, else compare as text.
	if l.Type == relstore.TText && isNum(r) {
		if cv, err := relstore.Coerce(l, r.Type); err == nil {
			l = cv
		}
	}
	if r.Type == relstore.TText && isNum(l) {
		if cv, err := relstore.Coerce(r, l.Type); err == nil {
			r = cv
		}
	}
	if l.Type == relstore.TText && r.Type == relstore.TBool {
		if cv, err := relstore.Coerce(l, relstore.TBool); err == nil {
			l = cv
		}
	}
	if r.Type == relstore.TText && l.Type == relstore.TBool {
		if cv, err := relstore.Coerce(r, relstore.TBool); err == nil {
			r = cv
		}
	}
	if (l.Type == relstore.TText) != (r.Type == relstore.TText) {
		// Coercion failed; fall back to text comparison of both.
		l, _ = relstore.Coerce(l, relstore.TText)
		r, _ = relstore.Coerce(r, relstore.TText)
	}
	cv := relstore.Compare(l, r)
	if isNum(l) && isNum(r) {
		// Ignore the type tiebreak Compare applies for total order.
		lf, _ := relstore.Coerce(l, relstore.TFloat)
		rf, _ := relstore.Coerce(r, relstore.TFloat)
		if lf.F == rf.F {
			cv = 0
		}
	}
	var b bool
	switch c.Op {
	case OpEq:
		b = cv == 0
	case OpNe:
		b = cv != 0
	case OpLt:
		b = cv < 0
	case OpLe:
		b = cv <= 0
	case OpGt:
		b = cv > 0
	case OpGe:
		b = cv >= 0
	}
	return relstore.Bool(b), nil
}

func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// And is logical conjunction with short-circuit evaluation.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a And) Eval(env Env) (relstore.Value, error) {
	l, err := evalBool(a.L, env)
	if err != nil {
		return relstore.Null, err
	}
	if !l {
		return relstore.Bool(false), nil
	}
	r, err := evalBool(a.R, env)
	if err != nil {
		return relstore.Null, err
	}
	return relstore.Bool(r), nil
}

func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is logical disjunction with short-circuit evaluation.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o Or) Eval(env Env) (relstore.Value, error) {
	l, err := evalBool(o.L, env)
	if err != nil {
		return relstore.Null, err
	}
	if l {
		return relstore.Bool(true), nil
	}
	r, err := evalBool(o.R, env)
	if err != nil {
		return relstore.Null, err
	}
	return relstore.Bool(r), nil
}

func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is logical negation.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(env Env) (relstore.Value, error) {
	b, err := evalBool(n.E, env)
	if err != nil {
		return relstore.Null, err
	}
	return relstore.Bool(!b), nil
}

func (n Not) String() string { return fmt.Sprintf("NOT (%s)", n.E) }

// LikeExpr matches the operand's text form against an SQL LIKE pattern
// (case-insensitive, as in the OEM layer).
type LikeExpr struct {
	E       Expr
	Pattern string
	Neg     bool
}

// Eval implements Expr.
func (l LikeExpr) Eval(env Env) (relstore.Value, error) {
	v, err := l.E.Eval(env)
	if err != nil {
		return relstore.Null, err
	}
	if v.IsNull() {
		return relstore.Bool(false), nil
	}
	tv, err := relstore.Coerce(v, relstore.TText)
	if err != nil {
		return relstore.Bool(l.Neg), nil
	}
	m := likeMatchSQL(strings.ToLower(tv.S), strings.ToLower(l.Pattern))
	if l.Neg {
		m = !m
	}
	return relstore.Bool(m), nil
}

func (l LikeExpr) String() string {
	op := "LIKE"
	if l.Neg {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", l.E, op, l.Pattern)
}

func likeMatchSQL(s, p string) bool {
	sr, pr := []rune(s), []rune(p)
	prev := make([]bool, len(pr)+1)
	cur := make([]bool, len(pr)+1)
	prev[0] = true
	for j := 1; j <= len(pr); j++ {
		prev[j] = prev[j-1] && pr[j-1] == '%'
	}
	for i := 1; i <= len(sr); i++ {
		cur[0] = false
		for j := 1; j <= len(pr); j++ {
			switch pr[j-1] {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && sr[i-1] == pr[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(pr)]
}

// IsNull tests for NULL (or NOT NULL when Neg).
type IsNull struct {
	E   Expr
	Neg bool
}

// Eval implements Expr.
func (i IsNull) Eval(env Env) (relstore.Value, error) {
	v, err := i.E.Eval(env)
	if err != nil {
		return relstore.Null, err
	}
	b := v.IsNull()
	if i.Neg {
		b = !b
	}
	return relstore.Bool(b), nil
}

func (i IsNull) String() string {
	if i.Neg {
		return fmt.Sprintf("%s IS NOT NULL", i.E)
	}
	return fmt.Sprintf("%s IS NULL", i.E)
}

// InList tests membership in a literal list.
type InList struct {
	E     Expr
	Items []relstore.Value
	Neg   bool
}

// Eval implements Expr.
func (in InList) Eval(env Env) (relstore.Value, error) {
	v, err := in.E.Eval(env)
	if err != nil {
		return relstore.Null, err
	}
	if v.IsNull() {
		return relstore.Bool(false), nil
	}
	found := false
	for _, it := range in.Items {
		eq, err := Cmp{Op: OpEq, L: Lit{v}, R: Lit{it}}.Eval(nil)
		if err == nil && eq.Type == relstore.TBool && eq.B {
			found = true
			break
		}
	}
	if in.Neg {
		found = !found
	}
	return relstore.Bool(found), nil
}

func (in InList) String() string {
	var parts []string
	for _, it := range in.Items {
		parts = append(parts, Lit{it}.String())
	}
	op := "IN"
	if in.Neg {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", in.E, op, strings.Join(parts, ", "))
}

func isNum(v relstore.Value) bool { return v.Type == relstore.TInt || v.Type == relstore.TFloat }

func evalBool(e Expr, env Env) (bool, error) {
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	switch v.Type {
	case relstore.TBool:
		return v.B, nil
	case relstore.TInvalid:
		return false, nil
	}
	return false, fmt.Errorf("relstore: expression %s is not boolean", e)
}

// conjuncts flattens an expression into its AND-ed conjuncts.
func conjuncts(e Expr) []Expr {
	if a, ok := e.(And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// colsOf collects the column references appearing in an expression.
func colsOf(e Expr) []Col {
	var out []Col
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Col:
			out = append(out, x)
		case Cmp:
			walk(x.L)
			walk(x.R)
		case And:
			walk(x.L)
			walk(x.R)
		case Or:
			walk(x.L)
			walk(x.R)
		case Not:
			walk(x.E)
		case LikeExpr:
			walk(x.E)
		case IsNull:
			walk(x.E)
		case InList:
			walk(x.E)
		}
	}
	walk(e)
	return out
}
