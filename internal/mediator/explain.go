package mediator

// EXPLAIN / EXPLAIN ANALYZE: the query engine's introspection surface.
//
// Explain reports every decision the optimizer makes for a query — which
// sources participate and why, which where-clause conjuncts push down to a
// source and why the rest cannot, and whether the query routes to the
// eval-only snapshot fast path — each reason produced by the same function
// that makes the decision (classifyConjunct, snapshotPathDecision), so the
// report cannot diverge from the plan.
//
// ExplainAnalyze additionally executes the query — through the same compute
// entry a live query uses, so against a pinned epoch on the snapshot path or
// through the real fetch+fuse pipeline — with the instrumented evaluator
// counting per-stage cardinalities. The reported fetched/kept per source are
// the same Stats fields a plain Query reports; the fidelity tests pin that
// equality.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/fused"
	"repro/internal/lorel"
	"repro/internal/obs"
)

// Explain is the introspection report for one query.
type Explain struct {
	// Query is the canonical form the plan cache keys on.
	Query string `json:"query"`
	// PlanTree is the compiled plan rendered by lorel's Plan.Describe.
	PlanTree string `json:"plan_tree"`
	// Sources lists every registered source with its participate/prune
	// decision and reason.
	Sources []ExplainSource `json:"sources"`
	// Pushdown lists every where-clause conjunct with its classification,
	// both gates' verdicts, and the decision in effect.
	Pushdown []ExplainPushdown `json:"pushdown,omitempty"`
	// CacheEnabled: result/plan caching (and with it the snapshot fast
	// path) is on.
	CacheEnabled bool `json:"cache_enabled"`
	// SnapshotSafe and PathReason describe the cache/snapshot-path routing
	// decision for a computed query, taken against the epoch now published
	// (an analyze run pins it first; a plan-only explain with no epoch yet
	// reports the epoch-independent rules). Masked lists the concepts the
	// query does not name, hidden by a mask on the snapshot path.
	SnapshotSafe bool     `json:"snapshot_safe"`
	PathReason   string   `json:"path_reason"`
	Masked       []string `json:"masked,omitempty"`
	// Analyze carries the observed execution; nil for plan-only explain.
	Analyze *ExplainAnalysis `json:"analyze,omitempty"`
}

// ExplainSource is one source's participate/prune decision.
type ExplainSource struct {
	Source  string `json:"source"`
	Concept string `json:"concept,omitempty"`
	Pruned  bool   `json:"pruned"`
	Reason  string `json:"reason"`
}

// ExplainPushdown is one where-clause conjunct's pushdown story.
type ExplainPushdown struct {
	// Conjunct is the predicate's canonical shape — also the statistics
	// table's selectivity key.
	Conjunct string `json:"conjunct"`
	// Variable/Concept identify what a push would constrain (set only for
	// sound conjuncts).
	Variable string `json:"variable,omitempty"`
	Concept  string `json:"concept,omitempty"`
	// Sound: evaluating this conjunct at the source provably cannot change
	// the answer. Reason explains an unsound or gated-off conjunct.
	Sound  bool   `json:"sound"`
	Reason string `json:"reason,omitempty"`
	// LivePush: the conjunct is pushed to the source on this manager.
	LivePush bool `json:"live_push"`
}

// ExplainAnalysis is the observed execution of an EXPLAIN ANALYZE.
type ExplainAnalysis struct {
	// SnapshotUsed: the run evaluated against the pinned shared epoch
	// (stage timings for fetch/fuse then describe the snapshot's
	// construction, possibly amortized over earlier queries).
	SnapshotUsed bool `json:"snapshot_used"`
	// Cardinalities are the instrumented evaluator's per-stage counts.
	Cardinalities lorel.EvalCounts `json:"cardinalities"`
	// Fetched/Kept per source — identical to the Stats a Query reports.
	Fetched map[string]int `json:"fetched"`
	Kept    map[string]int `json:"kept"`
	// Translation reports, per fetched source, whether its translated
	// population was read from the per-source-version memo or built.
	Translation map[string]string `json:"translation,omitempty"`
	// Stages are the pipeline stage timings.
	Stages []ExplainStage `json:"stages"`
	// AnswerEdges is the answer's edge count; Bindings the surviving
	// binding tuples (also in Cardinalities); ObjectsImported what answer
	// import copied for them.
	AnswerEdges     int `json:"answer_edges"`
	Bindings        int `json:"bindings"`
	ObjectsImported int `json:"objects_imported"`
	// Stats is the run's full execution report.
	Stats *Stats `json:"-"`
}

// ExplainStage is one named pipeline stage's duration.
type ExplainStage struct {
	Stage  string `json:"stage"`
	Micros int64  `json:"micros"`
}

// ExplainString parses src and explains it; analyze also executes it.
func (m *Manager) ExplainString(src string, analyze bool) (*Explain, error) {
	q, err := lorel.Parse(src)
	if err != nil {
		return nil, err
	}
	return m.ExplainQuery(q, analyze)
}

// ExplainQuery explains (and with analyze, executes) one query. Analyze
// runs outside the result cache on purpose: its timings and cardinalities
// describe a real computation, not a lookup.
func (m *Manager) ExplainQuery(q *lorel.Query, analyze bool) (*Explain, error) {
	m.explains.Inc()
	t0 := obs.Now()
	e, err := m.explainQuery(q, analyze)
	m.opExplainDur.Observe(obs.Since(t0))
	if err != nil {
		m.opExplainErr.Inc()
	}
	return e, err
}

func (m *Manager) explainQuery(q *lorel.Query, analyze bool) (*Explain, error) {
	canon := q.String()
	an, err := m.analyze(q)
	if err != nil {
		return nil, err
	}
	plan, err := m.planFor(q, canon)
	if err != nil {
		return nil, err
	}
	e := &Explain{
		Query:        canon,
		PlanTree:     plan.Describe(),
		CacheEnabled: m.cache != nil,
	}
	e.Sources = m.explainSources(an)
	e.Pushdown = m.explainPushdown(an, q)
	if analyze {
		if err := m.explainAnalyze(e, q, canon, an); err != nil {
			return nil, err
		}
	}
	if m.cache == nil {
		e.PathReason = "caching disabled: the snapshot fast path is off; every query runs fetch+fuse+eval"
	} else {
		d := m.snapshotPathDecision(an, q, m.epoch.Load())
		e.SnapshotSafe, e.PathReason, e.Masked = d.safe, d.reason, d.masked
	}
	return e, nil
}

// explainSources reports each registered source's participate/prune
// decision, mirroring fetch's job-selection loop.
func (m *Manager) explainSources(an *analysis) []ExplainSource {
	var out []ExplainSource
	for _, w := range m.reg.All() {
		s := ExplainSource{Source: w.Name()}
		mp := m.gl.MappingFor(w.Name())
		switch {
		case mp == nil:
			s.Pruned = true
			s.Reason = "registered but unmapped in the global model; cannot participate"
		case !an.needs(mp.Concept):
			s.Concept = mp.Concept
			s.Pruned = true
			s.Reason = fmt.Sprintf("concept %s is not reachable from any path in the query", mp.Concept)
		default:
			s.Concept = mp.Concept
			s.Reason = fmt.Sprintf("query touches concept %s", mp.Concept)
		}
		out = append(out, s)
	}
	return out
}

// explainPushdown classifies every where-clause conjunct and records
// whether it is pushed.
func (m *Manager) explainPushdown(an *analysis, q *lorel.Query) []ExplainPushdown {
	gateOK := !m.opts.DisablePushdown && m.opts.Policy == fused.PolicyPreferPrimary
	groups := an.pushGroups()
	var out []ExplainPushdown
	for _, conj := range conjuncts(q.Where) {
		pd := ExplainPushdown{Conjunct: lorel.CondString(conj)}
		onVar, reason := an.classifyConjunct(m.gl, conj)
		pd.Sound = reason == ""
		switch {
		case !pd.Sound:
			pd.Reason = reason
		case m.opts.DisablePushdown:
			pd.Reason = "pushdown disabled (Options.DisablePushdown)"
		case m.opts.Policy != fused.PolicyPreferPrimary:
			pd.Reason = fmt.Sprintf("policy %v cannot push soundly: filtered link entities would change reconciliation", m.opts.Policy)
		}
		if pd.Sound {
			pd.Variable = onVar
			pd.Concept = an.fromConcepts[onVar]
			pd.LivePush = gateOK
		}
		if pd.LivePush && len(groups[pd.Concept]) == 0 {
			pd.LivePush = false
			pd.Reason = fmt.Sprintf("another %s variable carries no pushed conjunct, so no %s entity may be dropped at the source", pd.Concept, pd.Concept)
		}
		out = append(out, pd)
	}
	return out
}

// explainAnalyze executes the query through queryCompute — the same entry
// a live query computes through, so the routing cannot differ — with the
// counted evaluator, and attaches the observation. It runs outside the
// result cache on purpose: its timings describe a real computation.
func (m *Manager) explainAnalyze(e *Explain, q *lorel.Query, canon string, an *analysis) error {
	ec := &lorel.EvalCounts{}
	res, st, err := m.queryCompute(q, canon, an, nil, ec)
	if err != nil {
		return err
	}
	a := &ExplainAnalysis{
		SnapshotUsed:  st.SnapshotUsed,
		Cardinalities: *ec,
		Fetched:       st.Fetched,
		Kept:          st.Kept,
		Translation:   st.Translation,
		AnswerEdges:   res.Size(),
		Bindings:      res.Bindings,
		Stats:         st,
	}
	a.ObjectsImported = res.Imported
	a.Stages = []ExplainStage{
		{Stage: obs.StageFetch, Micros: st.FetchTime.Microseconds()},
		{Stage: obs.StageFuse, Micros: st.FuseTime.Microseconds()},
		{Stage: obs.StageEval, Micros: st.EvalTime.Microseconds()},
		{Stage: obs.StageAnswerImport, Micros: res.ImportTime.Microseconds()},
	}
	e.Analyze = a
	return nil
}

// Format renders the explain report as operator-facing text — what the
// `annoda explain` CLI prints.
func (e *Explain) Format() string {
	var sb strings.Builder
	sb.WriteString(e.PlanTree)
	if e.CacheEnabled {
		path := "full pipeline (fetch+fuse+eval)"
		if e.SnapshotSafe {
			path = "snapshot eval-only"
		}
		fmt.Fprintf(&sb, "path: %s — %s\n", path, e.PathReason)
		if len(e.Masked) > 0 {
			fmt.Fprintf(&sb, "masked: [%s]\n", strings.Join(e.Masked, ", "))
		}
	} else {
		fmt.Fprintf(&sb, "path: %s\n", e.PathReason)
	}
	sb.WriteString("sources:\n")
	for _, s := range e.Sources {
		verdict := "participates"
		if s.Pruned {
			verdict = "pruned"
			if e.SnapshotSafe && slices.Contains(e.Masked, s.Concept) {
				verdict = "masked" // present in the epoch, hidden from this query
			}
		}
		fmt.Fprintf(&sb, "  %-12s %-12s %s\n", s.Source, verdict, s.Reason)
	}
	if len(e.Pushdown) > 0 {
		sb.WriteString("pushdown:\n")
		for _, p := range e.Pushdown {
			verdict := "skip"
			if p.LivePush {
				verdict = "push"
			}
			fmt.Fprintf(&sb, "  %-5s %s\n", verdict, p.Conjunct)
			if p.Reason != "" {
				fmt.Fprintf(&sb, "        reason: %s\n", p.Reason)
			}
		}
	}
	if a := e.Analyze; a != nil {
		sb.WriteString("analyze:\n")
		if a.SnapshotUsed {
			sb.WriteString("  snapshot epoch pinned; fetch/fuse below are its construction cost (amortized)\n")
		}
		for _, st := range a.Stages {
			fmt.Fprintf(&sb, "  stage %-13s %v\n", st.Stage, time.Duration(st.Micros)*time.Microsecond)
		}
		c := a.Cardinalities
		fmt.Fprintf(&sb, "  cardinalities: roots=%d from=%v visited=%d where-evals=%d pruned=%d bindings=%d select=%v\n",
			c.RootsMatched, c.FromMatched, c.ObjectsVisited, c.WhereEvals, c.Pruned, c.Bindings, c.SelectMatched)
		if c.WherePostings {
			fmt.Fprintf(&sb, "  where: from postings, %d reused and %d built (the epoch keeps %d)\n",
				c.PostingsReused, c.PostingsBuilt, c.PostingsKept)
		}
		for _, src := range sortedKeys(a.Fetched) {
			fmt.Fprintf(&sb, "  %-12s fetched %d kept %d\n", src, a.Fetched[src], a.Kept[src])
			if tl := a.Translation[src]; tl != "" {
				fmt.Fprintf(&sb, "  %-12s translation: %s\n", src, tl)
			}
		}
		fmt.Fprintf(&sb, "  answer: %d edges from %d bindings\n", a.AnswerEdges, a.Bindings)
	}
	return sb.String()
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
