package lorel

import (
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/oem"
)

// Set-at-a-time existence. A where clause built only from and, or and not
// over exists tests on the one from-variable, every path a chain of labels
// — Figure 5(b)'s "exists G.Annotation and not exists G.Disease" is one —
// does not need a walk per binding on a frozen graph. Each exists path is a
// posting: a bitset over the positions of the from clause's bindings, set
// where the path reaches something. The clause is then word-wise and, or
// and and-not over those bitsets, and the select items run only for the
// bindings left set, in binding order.
//
// The postings and the binding list they are over are kept in the graph's
// posting memo (oem.Graph.Posting), keyed by the mask, the from clause's
// root and the folded label steps, so every later query on the same frozen
// graph under the same mask that tests the same path reads them. Only
// non-empty ones are kept: a query naming labels the graph does not have
// adds nothing, and the memo is bounded by the label paths the graph really
// has. On a graph that is not frozen (the per-query pipeline's private
// fusion, a source population) the per-binding evaluator runs instead; it is
// also the reference the postings are tested against.

// existsPlan is the set-at-a-time form of an exists-only where clause.
type existsPlan struct {
	from  string // posting path of the from clause's bindings
	where *pnode
}

// pnode is one node of an exists-only where clause.
type pnode struct {
	op   byte // 'e' exists, '&' and, '|' or, '!' not
	l, r *pnode
	path string // 'e': the posting's path (the from path's, then its own)
	n    *nfa   // 'e': the exists path's NFA, to build the posting with
}

// compileExists returns the set-at-a-time plan of q, or nil when q's shape
// does not qualify: one from clause along a label chain, and a where clause
// of and, or and not over exists tests whose paths are label chains from the
// from-variable.
func compileExists(q *Query) *existsPlan {
	if len(q.From) != 1 || q.Where == nil {
		return nil
	}
	from, ok := chainPath(q.From[0].Path.Steps)
	if !ok {
		return nil
	}
	where := compilePostings(q.Where, q.From[0].BindName(), from)
	if where == nil {
		return nil
	}
	return &existsPlan{from: from, where: where}
}

// compilePostings compiles c over the from-variable bind, whose posting
// path is from; nil when some part of c does not qualify.
func compilePostings(c Cond, bind, from string) *pnode {
	node := func(op byte, l, r Cond) *pnode {
		nd := &pnode{op: op, l: compilePostings(l, bind, from)}
		if r != nil {
			nd.r = compilePostings(r, bind, from)
		}
		if nd.l == nil || (r != nil && nd.r == nil) {
			return nil
		}
		return nd
	}
	switch x := c.(type) {
	case AndCond:
		return node('&', x.L, x.R)
	case OrCond:
		return node('|', x.L, x.R)
	case NotCond:
		return node('!', x.E, nil)
	case ExistsCond:
		if x.P.Base != bind {
			return nil // a root path: the same for every binding
		}
		if chain, ok := chainPath(x.P.Steps); ok {
			return &pnode{op: 'e', path: from + "|" + chain, n: compileSteps(x.P.Steps)}
		}
	}
	return nil
}

// chainPath encodes a chain of label steps as a posting path: each folded
// label behind its length, so no two chains share an encoding. ok is false
// when a step is not a label.
func chainPath(steps []Step) (string, bool) {
	var sb strings.Builder
	for _, s := range steps {
		l, ok := s.(LabelStep)
		if !ok {
			return "", false
		}
		f := oem.FoldLabel(l.Name)
		sb.WriteString(strconv.Itoa(len(f)))
		sb.WriteByte(':')
		sb.WriteString(f)
	}
	return sb.String(), true
}

// bindingList is the memoized result of a from clause: the objects it
// binds, in first-reached order, and the product states its traversal
// visited (for EvalCounts).
type bindingList struct {
	oids    []oem.OID
	visited int
}

// postingRun is one set-at-a-time evaluation: the evaluator, the root the
// from path starts at, the bindings, and how many postings it read from the
// memo and how many it built.
type postingRun struct {
	ev            *evaluator
	root          oem.OID
	b             *bindingList
	reused, built int
}

// run evaluates the where clause over the from clause's bindings and calls
// emit with each surviving binding set in ev.env, in binding order.
func (x *existsPlan) run(ev *evaluator, f FromClause, fromNFA *nfa, ec *EvalCounts, emit func() bool) error {
	starts, err := ev.starts(f.Path)
	if err != nil {
		return err
	}
	pr := &postingRun{ev: ev, root: starts[0]}
	pr.bindings(x.from, fromNFA)
	n := len(pr.b.oids)
	ec.noteFrom(0, n, pr.b.visited)
	keep := pr.set(x.where, n)
	kept := keep.Count()
	ec.noteWhereSet(n, kept)
	ec.notePostings(pr.reused, pr.built, ev.g.Postings())
	name := f.BindName()
	for wi, w := range keep {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			ev.env[name] = pr.b.oids[i]
			if !emit() {
				return nil
			}
		}
	}
	delete(ev.env, name)
	return nil
}

// bindings reads the from clause's binding list from the memo, or builds
// (and, when it binds anything, keeps) it.
func (pr *postingRun) bindings(path string, n *nfa) {
	key := oem.PostingKey{Mask: pr.ev.mask, Root: pr.root, Path: path}
	if v, ok := pr.ev.g.Posting(key); ok {
		pr.b, pr.reused = v.(*bindingList), pr.reused+1
		return
	}
	pr.built++
	sc := pr.ev.sc
	sc.startBuf[0] = pr.root
	b := &bindingList{oids: evalNFA(pr.ev.g, pr.ev.mask, n, sc.startBuf[:1], sc)}
	b.visited = len(sc.queue)
	if len(b.oids) > 0 {
		b = pr.ev.g.KeepPosting(key, b).(*bindingList)
	}
	pr.b = b
}

// posting reads an exists node's posting from the memo, or builds (and,
// when it holds for some binding, keeps) it. The result is shared: callers
// must not write it. nil is the empty posting.
func (pr *postingRun) posting(nd *pnode) oem.Bitset {
	key := oem.PostingKey{Mask: pr.ev.mask, Root: pr.root, Path: nd.path}
	if v, ok := pr.ev.g.Posting(key); ok {
		pr.reused++
		return v.(oem.Bitset)
	}
	pr.built++
	var set oem.Bitset
	sc := pr.ev.sc
	for i, oid := range pr.b.oids {
		sc.startBuf[0] = oid
		if len(evalNFA(pr.ev.g, pr.ev.mask, nd.n, sc.startBuf[:1], sc)) > 0 {
			if set == nil {
				set = oem.NewBitset(len(pr.b.oids))
			}
			set.Add(i)
		}
	}
	if set != nil {
		set = pr.ev.g.KeepPosting(key, set).(oem.Bitset)
	}
	return set
}

// set evaluates a where node to a fresh bitset over the n bindings, which
// the caller owns. An exists child on the right of and/or is combined
// straight from its posting, and "and not exists" by and-not, so a chain of
// conjuncts allocates one bitset.
func (pr *postingRun) set(nd *pnode, n int) oem.Bitset {
	switch nd.op {
	case 'e':
		s := oem.NewBitset(n)
		s.Or(pr.posting(nd))
		return s
	case '!':
		s := pr.set(nd.l, n)
		s.Not(n)
		return s
	}
	s := pr.set(nd.l, n)
	switch r := nd.r; {
	case r.op == 'e' && nd.op == '&':
		s.And(pr.posting(r))
	case r.op == 'e':
		s.Or(pr.posting(r))
	case r.op == '!' && r.l.op == 'e' && nd.op == '&':
		s.AndNot(pr.posting(r.l))
	case nd.op == '&':
		s.And(pr.set(r, n))
	default:
		s.Or(pr.set(r, n))
	}
	return s
}
