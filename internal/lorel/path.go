package lorel

import (
	"strings"

	"repro/internal/oem"
)

// Path expressions are regular expressions over edge labels; they compile
// to a small Thompson NFA which is then evaluated as a product traversal of
// (NFA state, graph object). Matching is case-insensitive on labels, per
// Lorel's forgiving treatment of semi-structured vocabularies: label steps
// are folded once at compile time and matched against the graph's folded
// label index, so the traversal itself never case-converts.

type matchKind uint8

const (
	mEps matchKind = iota
	mLabel
	mAny
)

type nfaEdge struct {
	kind  matchKind
	label string // folded with oem.FoldLabel, for mLabel
	to    int
}

type nfa struct {
	edges  [][]nfaEdge // by state
	start  int
	accept int
}

func (n *nfa) newState() int {
	n.edges = append(n.edges, nil)
	return len(n.edges) - 1
}

func (n *nfa) addEdge(from int, e nfaEdge) {
	n.edges[from] = append(n.edges[from], e)
}

// compileSteps builds the NFA for a step sequence.
func compileSteps(steps []Step) *nfa {
	n := &nfa{}
	start := n.newState()
	cur := start
	for _, s := range steps {
		cur = compileStep(n, s, cur)
	}
	n.start = start
	n.accept = cur
	return n
}

// compileStep appends the fragment for one step after state `in` and
// returns its exit state.
func compileStep(n *nfa, s Step, in int) int {
	switch x := s.(type) {
	case LabelStep:
		out := n.newState()
		n.addEdge(in, nfaEdge{kind: mLabel, label: oem.FoldLabel(x.Name), to: out})
		return out
	case WildcardStep:
		out := n.newState()
		n.addEdge(in, nfaEdge{kind: mAny, to: out})
		return out
	case AnyPathStep:
		mid := n.newState()
		out := n.newState()
		n.addEdge(in, nfaEdge{kind: mEps, to: mid})
		n.addEdge(mid, nfaEdge{kind: mAny, to: mid})
		n.addEdge(mid, nfaEdge{kind: mEps, to: out})
		return out
	case GroupStep:
		gin := n.newState()
		gout := n.newState()
		n.addEdge(in, nfaEdge{kind: mEps, to: gin})
		for _, alt := range x.Alternatives {
			cur := gin
			for _, st := range alt {
				cur = compileStep(n, st, cur)
			}
			n.addEdge(cur, nfaEdge{kind: mEps, to: gout})
		}
		switch x.Quant {
		case QOptional:
			n.addEdge(gin, nfaEdge{kind: mEps, to: gout})
		case QStar:
			n.addEdge(gin, nfaEdge{kind: mEps, to: gout})
			n.addEdge(gout, nfaEdge{kind: mEps, to: gin})
		case QPlus:
			n.addEdge(gout, nfaEdge{kind: mEps, to: gin})
		}
		return gout
	}
	return in
}

type prodState struct {
	state int
	obj   oem.OID
}

// scratch is the reusable traversal state of one evaluation: the product
// visited set, the emit dedup set, the BFS queue, and small operand buffers.
// A Plan pools scratches so repeated evaluations of the same shape allocate
// none of this; result slices are always fresh (they outlive the call).
type scratch struct {
	visited  map[prodState]bool
	emitted  map[oem.OID]bool
	queue    []prodState
	startBuf [1]oem.OID
	lvals    []*oem.Object
	rvals    []*oem.Object
}

func newScratch() *scratch {
	return &scratch{
		visited: make(map[prodState]bool),
		emitted: make(map[oem.OID]bool),
	}
}

// scratchMapMax bounds reuse of the visited/emitted maps: clearing a Go map
// costs time proportional to its bucket count, which never shrinks, so a
// map inflated by one large traversal (a from-clause over thousands of
// objects) would tax every small per-binding traversal after it. Oversized
// maps are dropped and reallocated small instead.
const scratchMapMax = 512

// evalNFA returns every object reachable from any start oid along a label
// path accepted by the NFA, in first-reached order. Label edges resolve
// through the graph's folded label index (one map hit per edge) rather than
// scanning and case-converting every ref. The traversal sees g under mask:
// a reference the mask hides is never followed (nil hides nothing).
func evalNFA(g *oem.Graph, mask *oem.Mask, n *nfa, starts []oem.OID, sc *scratch) []oem.OID {
	if len(sc.visited) > scratchMapMax {
		sc.visited = make(map[prodState]bool)
	} else {
		clear(sc.visited)
	}
	if len(sc.emitted) > scratchMapMax {
		sc.emitted = make(map[oem.OID]bool)
	} else {
		clear(sc.emitted)
	}
	visited, emitted := sc.visited, sc.emitted
	// One lock acquisition for the whole traversal: the index handle is
	// read lock-free per edge afterwards.
	ix, haveIx := g.LabelIndex()
	queue := sc.queue[:0]
	push := func(s prodState) {
		if !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	for _, o := range starts {
		push(prodState{state: n.start, obj: o})
	}
	var out []oem.OID
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		if cur.state == n.accept && !emitted[cur.obj] {
			emitted[cur.obj] = true
			out = append(out, cur.obj)
		}
		for _, e := range n.edges[cur.state] {
			switch e.kind {
			case mEps:
				push(prodState{state: e.to, obj: cur.obj})
			case mAny:
				obj := g.Get(cur.obj)
				if obj == nil || !obj.IsComplex() {
					continue
				}
				for _, r := range obj.Refs {
					if mask != nil && mask.Hides(r) {
						continue
					}
					push(prodState{state: e.to, obj: r.Target})
				}
			case mLabel:
				if mask != nil && mask.HidesLabel(e.label) {
					continue
				}
				if haveIx {
					if ts, indexed := ix.Targets(cur.obj, e.label); indexed {
						for _, t := range ts {
							if mask != nil && mask.HidesObject(t) {
								continue
							}
							push(prodState{state: e.to, obj: t})
						}
						continue
					}
				}
				// No index entry — the object is narrow, or the graph has no
				// index (a translated population under pushdown): scan the refs.
				// EqualFold is exactly the index's semantics — e.label is
				// canonical under oem.FoldLabel, and EqualFold(x, canon)
				// holds iff FoldLabel(x) == canon — and allocates nothing.
				obj := g.Get(cur.obj)
				if obj == nil || !obj.IsComplex() {
					continue
				}
				for _, r := range obj.Refs {
					if strings.EqualFold(r.Label, e.label) && !(mask != nil && mask.HidesObject(r.Target)) {
						push(prodState{state: e.to, obj: r.Target})
					}
				}
			}
		}
	}
	sc.queue = queue // keep the grown buffer for the next call
	return out
}

// EvalPath evaluates a path from explicit start objects, compiling it on
// the fly — a convenience shim for one-off evaluation. It pays a full
// compile and fresh scratch per call; repeated evaluation of a fixed shape
// should go through Compile.
func EvalPath(g *oem.Graph, steps []Step, starts []oem.OID) []oem.OID {
	return evalNFA(g, nil, compileSteps(steps), starts, newScratch())
}
