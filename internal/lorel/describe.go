package lorel

import (
	"fmt"
	"strings"
)

// EvalCounts accumulates per-stage cardinalities for one plan evaluation.
// It follows the same nil-inert discipline as internal/obs: every note
// method is safe on a nil receiver and costs one predictable branch, so the
// evaluator instruments its hot sites unconditionally and the plain Eval
// path pays near nothing. A counts struct belongs to one evaluation — it is
// not safe for concurrent use.
type EvalCounts struct {
	RootsMatched   int   `json:"roots_matched"`   // objects bound by the first from clause
	FromMatched    []int `json:"from_matched"`    // objects matched per from-clause NFA, summed over enumerations
	SelectMatched  []int `json:"select_matched"`  // objects emitted per select-item NFA, before oid dedup
	ObjectsVisited int   `json:"objects_visited"` // (NFA state, object) product states visited across from/select traversals
	WhereEvals     int   `json:"where_evals"`     // where-clause evaluations: one per candidate binding tuple
	Pruned         int   `json:"pruned"`          // candidate bindings rejected by the where clause
	Bindings       int   `json:"bindings"`        // candidate bindings that survived
	// WherePostings is set when the where clause was answered from postings
	// (set at a time, see postings.go) rather than per binding; the counts
	// above are the same either way. PostingsReused and PostingsBuilt count
	// the postings (binding lists included) read from the graph's memo and
	// built for this evaluation; PostingsKept is how many the graph keeps
	// after it.
	WherePostings  bool `json:"where_postings,omitempty"`
	PostingsReused int  `json:"postings_reused,omitempty"`
	PostingsBuilt  int  `json:"postings_built,omitempty"`
	PostingsKept   int  `json:"postings_kept,omitempty"`
}

func (ec *EvalCounts) noteFrom(level, matched, visited int) {
	if ec == nil {
		return
	}
	for len(ec.FromMatched) <= level {
		ec.FromMatched = append(ec.FromMatched, 0)
	}
	ec.FromMatched[level] += matched
	if level == 0 {
		ec.RootsMatched += matched
	}
	ec.ObjectsVisited += visited
}

func (ec *EvalCounts) noteSelect(item, matched, visited int) {
	if ec == nil {
		return
	}
	for len(ec.SelectMatched) <= item {
		ec.SelectMatched = append(ec.SelectMatched, 0)
	}
	ec.SelectMatched[item] += matched
	ec.ObjectsVisited += visited
}

func (ec *EvalCounts) noteWhere(kept bool) {
	if ec == nil {
		return
	}
	ec.WhereEvals++
	if kept {
		ec.Bindings++
	} else {
		ec.Pruned++
	}
}

// noteWhereSet records a where clause evaluated set at a time: evals
// candidate bindings, kept of them surviving.
func (ec *EvalCounts) noteWhereSet(evals, kept int) {
	if ec == nil {
		return
	}
	ec.WhereEvals += evals
	ec.Bindings += kept
	ec.Pruned += evals - kept
}

func (ec *EvalCounts) notePostings(reused, built, kept int) {
	if ec == nil {
		return
	}
	ec.WherePostings = true
	ec.PostingsReused += reused
	ec.PostingsBuilt += built
	ec.PostingsKept = kept
}

// Describe renders the compiled plan as a one-plan-per-line tree: each
// from clause with its bind variable and NFA size, the where clause as an
// indented condition tree (literals included), and each select item with
// its answer edge label. The format is stable prose for humans and tests,
// not a machine interface — /api/explain carries the structured form.
func (p *Plan) Describe() string {
	var sb strings.Builder
	sb.WriteString("plan: ")
	sb.WriteString(p.q.String())
	sb.WriteByte('\n')
	for i, f := range p.q.From {
		fmt.Fprintf(&sb, "├─ from[%d]: %s as %s (nfa: %d states)\n",
			i, f.Path.String(), f.BindName(), len(p.from[i].edges))
	}
	if p.q.Where == nil {
		sb.WriteString("├─ where: (none)\n")
	} else {
		sb.WriteString("├─ where:\n")
		describeCond(&sb, p.q.Where, "│    ")
	}
	for i, s := range p.q.Select {
		marker := "├─"
		if i == len(p.q.Select)-1 {
			marker = "└─"
		}
		fmt.Fprintf(&sb, "%s select[%d]: %s as %s (nfa: %d states)\n",
			marker, i, s.Path.String(), s.EdgeLabel(), len(p.sel[i].edges))
	}
	return sb.String()
}

// CondString renders a condition in the query's canonical syntax — the
// stable "predicate shape" key the statistics table and EXPLAIN use.
func CondString(c Cond) string {
	if c == nil {
		return "true"
	}
	return condString(c)
}

// describeCond renders a condition tree: boolean connectives get their own
// lines with children indented beneath them, leaves render via condString.
func describeCond(sb *strings.Builder, c Cond, prefix string) {
	switch x := c.(type) {
	case AndCond:
		sb.WriteString(prefix)
		sb.WriteString("and\n")
		describeCond(sb, x.L, prefix+"  ")
		describeCond(sb, x.R, prefix+"  ")
	case OrCond:
		sb.WriteString(prefix)
		sb.WriteString("or\n")
		describeCond(sb, x.L, prefix+"  ")
		describeCond(sb, x.R, prefix+"  ")
	case NotCond:
		sb.WriteString(prefix)
		sb.WriteString("not\n")
		describeCond(sb, x.E, prefix+"  ")
	default:
		sb.WriteString(prefix)
		sb.WriteString(condString(c))
		sb.WriteByte('\n')
	}
}
