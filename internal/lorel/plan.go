package lorel

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/oem"
)

// Plan is a compiled query: every path in the from, select and where
// clauses is precompiled to an NFA, literals are materialized once, and a
// pool of traversal scratch keeps repeated evaluations allocation-light.
// Compile once, Eval many — the mediator caches plans by canonical query
// string so a repeated query shape never recompiles.
//
// A Plan is safe for concurrent Eval calls. It aliases the Query it was
// compiled from; the caller must not mutate that Query afterwards.
type Plan struct {
	q     *Query
	from  []*nfa
	sel   []*nfa
	where ccond // nil means true
	// exists is the where clause's set-at-a-time form when it is made only
	// of exists tests on the from-variable (see postings.go); nil otherwise.
	exists  *existsPlan
	scratch sync.Pool
}

// Compile builds the execution plan for a query.
func Compile(q *Query) (*Plan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("lorel: query has no from clause")
	}
	p := &Plan{q: q}
	for _, f := range q.From {
		p.from = append(p.from, compileSteps(f.Path.Steps))
	}
	for _, s := range q.Select {
		p.sel = append(p.sel, compileSteps(s.Path.Steps))
	}
	w, err := compileCond(q.Where)
	if err != nil {
		return nil, err
	}
	p.where = w
	p.exists = compileExists(q)
	return p, nil
}

// Eval runs the compiled plan against one OEM graph. Path bases resolve
// first against range variables bound by earlier from-clauses, then against
// the graph's named roots.
func (p *Plan) Eval(g *oem.Graph) (*Result, error) {
	return p.EvalMasked(g, nil, nil)
}

// EvalMasked is the one evaluation core: it runs the compiled plan against g
// as seen under mask (nil is the whole graph). Matching enumerates the
// bindings, never following a reference the mask hides, and collects the
// selected objects (deduplicated by oid); answer import then copies them into
// the result graph in selection order, leaving hidden references out. On a
// frozen graph a where clause made only of exists tests on the one
// from-variable is answered from postings the graph memoizes per mask
// (postings.go) instead of per binding; the answer and the counts are the
// same. ec,
// when non-nil, accumulates per-stage cardinalities; the count hooks are
// unconditional — EvalCounts methods are nil-inert, so an uncounted
// evaluation pays one predictable branch per hook (E20 measures the cost).
func (p *Plan) EvalMasked(g *oem.Graph, mask *oem.Mask, ec *EvalCounts) (*Result, error) {
	// A full query evaluation makes many label lookups over one settled
	// graph: build its label index once up front. (Condition plans skip
	// this — they run against still-growing per-source graphs.)
	g.EnsureLabelIndex()

	sc, _ := p.scratch.Get().(*scratch)
	if sc == nil {
		sc = newScratch()
	}
	defer p.scratch.Put(sc)
	ev := &evaluator{g: g, mask: mask, env: make(map[string]oem.OID, len(p.q.From)), sc: sc}

	res := &Result{Graph: oem.NewGraph()}
	res.Answer = res.Graph.NewComplex()
	res.Graph.SetRoot("answer", res.Answer)

	// selected holds each selected object waiting for import as the edge it
	// will hang under on the answer object: its label, and its oid in g.
	var selected []oem.Ref
	added := make(map[oem.Ref]bool)

	q := p.q
	var evalErr error
	// emit runs the select items for the bindings in ev.env, which passed
	// the where clause; false stops the evaluation (evalErr says why).
	emit := func() bool {
		res.Bindings++
		for i, item := range q.Select {
			starts, err := ev.starts(item.Path)
			if err != nil {
				evalErr = err
				return false
			}
			label := item.EdgeLabel()
			emitted := evalNFA(g, mask, p.sel[i], starts, sc)
			ec.noteSelect(i, len(emitted), len(sc.queue))
			for _, src := range emitted {
				k := oem.Ref{Label: label, Target: src}
				if !added[k] { // duplicate elimination by oid
					added[k] = true
					selected = append(selected, k)
				}
			}
		}
		return true
	}
	var recur func(level int) bool
	recur = func(level int) bool {
		if level == len(q.From) {
			ok, err := evalC(ev, p.where)
			if err != nil {
				evalErr = err
				return false
			}
			ec.noteWhere(ok)
			return !ok || emit()
		}
		f := q.From[level]
		starts, err := ev.starts(f.Path)
		if err != nil {
			evalErr = err
			return false
		}
		name := f.BindName()
		matched := evalNFA(g, mask, p.from[level], starts, sc)
		ec.noteFrom(level, len(matched), len(sc.queue))
		for _, oid := range matched {
			ev.env[name] = oid
			if !recur(level + 1) {
				return false
			}
		}
		delete(ev.env, name)
		return true
	}
	if p.exists != nil && g.Frozen() {
		if err := p.exists.run(ev, q.From[0], p.from[0], ec, emit); err != nil {
			return nil, err
		}
	} else {
		recur(0)
	}
	if evalErr != nil {
		return nil, evalErr
	}

	// Answer import: one walk over every selected subtree, so an object
	// selected twice (or shared between two selected subtrees) is copied
	// once.
	res.ImportStart = obs.Now()
	res.Origin = make(map[oem.OID]oem.OID, len(selected))
	n, err := res.Graph.ImportRefs(res.Answer, g, selected, mask, res.Origin)
	if err != nil {
		return nil, err
	}
	res.Imported, res.ImportTime = n, obs.Since(res.ImportStart)
	return res, nil
}

// ---------------------------------------------------------------------------
// Compiled conditions
// ---------------------------------------------------------------------------

// evaluator carries one evaluation's graph, variable bindings, and scratch.
type evaluator struct {
	g    *oem.Graph
	mask *oem.Mask // the view of g being evaluated; nil is all of it
	env  map[string]oem.OID
	sc   *scratch
}

// starts resolves a path's base to its start objects: a bound range
// variable first, then a graph root (matched under Unicode case folding,
// like labels). Unknown bases are errors — typos in queries should not
// silently yield empty answers. The returned slice aliases the evaluator's
// scratch; it is consumed before the next starts call.
func (ev *evaluator) starts(p Path) ([]oem.OID, error) {
	if oid, ok := ev.env[p.Base]; ok {
		ev.sc.startBuf[0] = oid
		return ev.sc.startBuf[:1], nil
	}
	if oid := ev.g.RootMatch(p.Base); oid != 0 {
		ev.sc.startBuf[0] = oid
		return ev.sc.startBuf[:1], nil
	}
	return nil, fmt.Errorf("lorel: unknown variable or root %q", p.Base)
}

// ccond is one node of a compiled where clause.
type ccond interface {
	eval(ev *evaluator) (bool, error)
}

// evalC evaluates a possibly-nil compiled condition (nil means true).
func evalC(ev *evaluator, c ccond) (bool, error) {
	if c == nil {
		return true, nil
	}
	return c.eval(ev)
}

func compileCond(c Cond) (ccond, error) {
	switch x := c.(type) {
	case nil:
		return nil, nil
	case AndCond:
		l, err := compileCond(x.L)
		if err != nil {
			return nil, err
		}
		r, err := compileCond(x.R)
		if err != nil {
			return nil, err
		}
		return cAnd{l: l, r: r}, nil
	case OrCond:
		l, err := compileCond(x.L)
		if err != nil {
			return nil, err
		}
		r, err := compileCond(x.R)
		if err != nil {
			return nil, err
		}
		return cOr{l: l, r: r}, nil
	case NotCond:
		e, err := compileCond(x.E)
		if err != nil {
			return nil, err
		}
		return cNot{e: e}, nil
	case ExistsCond:
		return cExists{p: x.P, n: compileSteps(x.P.Steps)}, nil
	case CmpCond:
		l, err := compileOperand(x.L)
		if err != nil {
			return nil, err
		}
		r, err := compileOperand(x.R)
		if err != nil {
			return nil, err
		}
		return cCmp{op: x.Op, l: l, r: r}, nil
	}
	return nil, fmt.Errorf("lorel: unknown condition %T", c)
}

type cAnd struct{ l, r ccond }

func (c cAnd) eval(ev *evaluator) (bool, error) {
	ok, err := evalC(ev, c.l)
	if err != nil || !ok {
		return false, err
	}
	return evalC(ev, c.r)
}

type cOr struct{ l, r ccond }

func (c cOr) eval(ev *evaluator) (bool, error) {
	ok, err := evalC(ev, c.l)
	if err != nil {
		return false, err
	}
	if ok {
		return true, nil
	}
	return evalC(ev, c.r)
}

type cNot struct{ e ccond }

func (c cNot) eval(ev *evaluator) (bool, error) {
	ok, err := evalC(ev, c.e)
	if err != nil {
		return false, err
	}
	return !ok, nil
}

type cExists struct {
	p Path
	n *nfa
}

func (c cExists) eval(ev *evaluator) (bool, error) {
	starts, err := ev.starts(c.p)
	if err != nil {
		return false, err
	}
	return len(evalNFA(ev.g, ev.mask, c.n, starts, ev.sc)) > 0, nil
}

// cOperand is a compiled comparison operand: a literal materialized once at
// compile time, or a precompiled path.
type cOperand struct {
	lits []*oem.Object // non-nil for literals: exactly one synthetic atom
	path *Path
	n    *nfa
}

func compileOperand(o Operand) (cOperand, error) {
	if o.Lit != nil {
		return cOperand{lits: []*oem.Object{litObject(o.Lit)}}, nil
	}
	if o.Path == nil {
		return cOperand{}, fmt.Errorf("lorel: operand has neither path nor literal")
	}
	return cOperand{path: o.Path, n: compileSteps(o.Path.Steps)}, nil
}

// values materializes an operand into atomic objects: precompiled literal
// atoms, or the atomic objects its path reaches (complex objects are
// skipped — they are incomparable in Lorel). Path results land in *buf,
// which is reused across bindings.
func (ev *evaluator) values(o cOperand, buf *[]*oem.Object) ([]*oem.Object, error) {
	if o.lits != nil {
		return o.lits, nil
	}
	starts, err := ev.starts(*o.path)
	if err != nil {
		return nil, err
	}
	out := (*buf)[:0]
	for _, oid := range evalNFA(ev.g, ev.mask, o.n, starts, ev.sc) {
		obj := ev.g.Get(oid)
		if obj != nil && obj.IsAtomic() {
			out = append(out, obj)
		}
	}
	*buf = out
	return out, nil
}

// cCmp applies existential comparison semantics: the predicate is true
// when SOME value pair drawn from the two operands satisfies the operator.
type cCmp struct {
	op   CmpOp
	l, r cOperand
}

func (c cCmp) eval(ev *evaluator) (bool, error) {
	ls, err := ev.values(c.l, &ev.sc.lvals)
	if err != nil {
		return false, err
	}
	rs, err := ev.values(c.r, &ev.sc.rvals)
	if err != nil {
		return false, err
	}
	for _, l := range ls {
		for _, r := range rs {
			if c.op == OpLike {
				if r.Kind == oem.KindString && oem.Like(l, r.Str) {
					return true, nil
				}
				continue
			}
			cmp, ok := oem.Compare(l, r)
			if !ok {
				continue
			}
			switch c.op {
			case OpEq:
				if cmp == 0 {
					return true, nil
				}
			case OpNe:
				if cmp != 0 {
					return true, nil
				}
			case OpLt:
				if cmp < 0 {
					return true, nil
				}
			case OpLe:
				if cmp <= 0 {
					return true, nil
				}
			case OpGt:
				if cmp > 0 {
					return true, nil
				}
			case OpGe:
				if cmp >= 0 {
					return true, nil
				}
			}
		}
	}
	return false, nil
}

// ---------------------------------------------------------------------------
// Compiled conditions, standalone (pushdown)
// ---------------------------------------------------------------------------

// CondPlan is a compiled condition. The mediator compiles each pushed-down
// predicate once per source and evaluates it per entity, so pushdown does
// not recompile (or re-allocate traversal state) per row.
type CondPlan struct {
	c       ccond
	scratch sync.Pool
}

// CompileCond compiles one condition for repeated evaluation. A nil
// condition compiles to the always-true plan.
func CompileCond(c Cond) (*CondPlan, error) {
	cc, err := compileCond(c)
	if err != nil {
		return nil, err
	}
	return &CondPlan{c: cc}, nil
}

// Eval evaluates the compiled condition under an explicit variable binding.
// Safe for concurrent use.
func (cp *CondPlan) Eval(g *oem.Graph, env map[string]oem.OID) (bool, error) {
	if cp.c == nil {
		return true, nil
	}
	sc, _ := cp.scratch.Get().(*scratch)
	if sc == nil {
		sc = newScratch()
	}
	defer cp.scratch.Put(sc)
	return cp.c.eval(&evaluator{g: g, env: env, sc: sc})
}
