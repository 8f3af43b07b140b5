package mediator

import (
	"slices"
	"strings"
	"testing"
)

func TestExplainPlanOnly(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	q := `select G from ANNODA-GML.Gene G where G.Symbol = "` + c.Genes[0].Symbol + `"`
	e, err := m.ExplainString(q, false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Analyze != nil {
		t.Error("plan-only explain carried an Analyze section")
	}
	if !strings.Contains(e.PlanTree, "from[0]: ANNODA-GML.Gene as G") {
		t.Errorf("plan tree missing from clause:\n%s", e.PlanTree)
	}
	if len(e.Sources) != 3 {
		t.Fatalf("sources = %+v, want 3 entries", e.Sources)
	}
	byName := map[string]ExplainSource{}
	for _, s := range e.Sources {
		byName[s.Source] = s
	}
	if s := byName["LocusLink"]; s.Pruned || s.Concept != "Gene" {
		t.Errorf("LocusLink decision = %+v, want participating Gene source", s)
	}
	for _, pruned := range []string{"GO", "OMIM"} {
		if s := byName[pruned]; !s.Pruned || s.Reason == "" {
			t.Errorf("%s decision = %+v, want pruned with reason", pruned, s)
		}
	}
	if len(e.Pushdown) != 1 {
		t.Fatalf("pushdown = %+v, want 1 conjunct", e.Pushdown)
	}
	pd := e.Pushdown[0]
	if !pd.Sound || !pd.HeuristicPush || !pd.LivePush || pd.Variable != "G" || pd.Concept != "Gene" {
		t.Errorf("pushdown decision = %+v, want sound live push on G/Gene", pd)
	}
	if pd.CostReason == "" {
		t.Error("cost model verdict missing its reason")
	}
	// Pushdown makes the query snapshot-unsafe; the reason must say so.
	if e.SnapshotSafe || !strings.Contains(e.PathReason, "pushdown") {
		t.Errorf("path decision = safe=%v reason=%q, want pushdown-unsafe", e.SnapshotSafe, e.PathReason)
	}
	if metric(m, "annoda_plan_explains_total") == 0 {
		t.Error("explain counter did not move")
	}
	// The rendered report must carry the headline facts.
	out := e.Format()
	for _, w := range []string{"plan:", "sources:", "pushdown", "pruned"} {
		if !strings.Contains(out, w) {
			t.Errorf("Format missing %q in:\n%s", w, out)
		}
	}
}

// EXPLAIN ANALYZE fidelity: the analyze-reported fetched/kept per source
// must equal the Stats a plain Query reports for the same query, on both
// the full-pipeline path and the snapshot eval-only path.
func TestExplainAnalyzeFidelity(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	cases := []struct {
		name string
		q    string
	}{
		{"pushdown-pipeline", `select G from ANNODA-GML.Gene G where G.Symbol = "` + c.Genes[0].Symbol + `"`},
		{"snapshot-safe", `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`},
		{"snapshot-masked", `select G from ANNODA-GML.Gene G where exists G.Annotation`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, qstats, err := m.QueryString(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			e, err := m.ExplainString(tc.q, true)
			if err != nil {
				t.Fatal(err)
			}
			a := e.Analyze
			if a == nil {
				t.Fatal("analyze explain has no Analyze section")
			}
			if len(a.Fetched) != len(qstats.Fetched) {
				t.Fatalf("fetched sources: analyze %v vs query %v", a.Fetched, qstats.Fetched)
			}
			for src, n := range qstats.Fetched {
				if a.Fetched[src] != n {
					t.Errorf("%s fetched: analyze %d, query %d", src, a.Fetched[src], n)
				}
			}
			for src, n := range qstats.Kept {
				if a.Kept[src] != n {
					t.Errorf("%s kept: analyze %d, query %d", src, a.Kept[src], n)
				}
			}
			if a.SnapshotUsed != strings.HasPrefix(tc.name, "snapshot-") || a.SnapshotUsed != e.SnapshotSafe {
				t.Errorf("SnapshotUsed = %v, SnapshotSafe = %v on %s", a.SnapshotUsed, e.SnapshotSafe, tc.name)
			}
			if masked := tc.name == "snapshot-masked"; masked != (len(e.Masked) > 0) ||
				masked != strings.Contains(e.Format(), "masked: [Disease]") || !slices.Equal(e.Masked, a.Stats.Masked) {
				t.Errorf("masked = %v (stats %v) on %s:\n%s", e.Masked, a.Stats.Masked, tc.name, e.Format())
			}
			if a.AnswerEdges != res.Size() {
				t.Errorf("answer edges: analyze %d, query %d", a.AnswerEdges, res.Size())
			}
			// Observed cardinalities must be live, not zeroed.
			card := a.Cardinalities
			if card.RootsMatched == 0 || card.WhereEvals == 0 || card.ObjectsVisited == 0 {
				t.Errorf("cardinalities look dead: %+v", card)
			}
			if card.Bindings != a.Bindings {
				t.Errorf("counter bindings %d != result bindings %d", card.Bindings, a.Bindings)
			}
			if len(a.Stages) != 4 || a.Stages[3].Stage != "answer_import" || a.Stages[3].Micros > a.Stages[2].Micros {
				t.Errorf("stages = %+v, want fetch/fuse/eval and answer_import inside eval", a.Stages)
			}
			if a.ObjectsImported < a.AnswerEdges {
				t.Errorf("%d objects imported for %d answer edges", a.ObjectsImported, a.AnswerEdges)
			}
		})
	}
}

func TestExplainPushdownReasons(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	// A join conjunct spans two variables; an exists over a link label is
	// not a plain attribute path. Neither may push, each with its reason.
	e, err := m.ExplainString(
		`select A from ANNODA-GML.Gene A, ANNODA-GML.Gene B where A.Symbol = B.Symbol and exists A.Annotation`, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Pushdown) != 2 {
		t.Fatalf("pushdown = %+v, want 2 conjuncts", e.Pushdown)
	}
	join, link := e.Pushdown[0], e.Pushdown[1]
	if join.Sound || !strings.Contains(join.Reason, "spans variables") {
		t.Errorf("join conjunct = %+v, want unsound with spans-variables reason", join)
	}
	if link.Sound || !strings.Contains(link.Reason, "not a single non-optional atomic attribute") {
		t.Errorf("link conjunct = %+v, want unsound with attribute reason", link)
	}

	// With pushdown disabled, a sound conjunct reports the gate as the
	// reason it is not pushed.
	md := manager(t, c, Options{DisablePushdown: true})
	e, err = md.ExplainString(`select G from ANNODA-GML.Gene G where G.Symbol = "X"`, false)
	if err != nil {
		t.Fatal(err)
	}
	pd := e.Pushdown[0]
	if !pd.Sound || pd.HeuristicPush || pd.LivePush || !strings.Contains(pd.Reason, "disabled") {
		t.Errorf("gated-off conjunct = %+v, want sound but unpushed with disabled reason", pd)
	}
}

// The cost model is advisory: once the table has observed that a predicate
// keeps everything, its verdict flips to "don't push", while the live
// decision stays the heuristic's and the query keeps pushing.
func TestExplainCostVerdictAdvisory(t *testing.T) {
	c := corpus()
	q := `select G from ANNODA-GML.Gene G where G.Symbol like "%"`
	m := manager(t, c, Options{})
	verdict := func() ExplainPushdown {
		t.Helper()
		e, err := m.ExplainString(q, false)
		if err != nil {
			t.Fatal(err)
		}
		return e.Pushdown[0]
	}

	before := verdict()
	if !before.LivePush || !before.CostPush {
		t.Errorf("no observation yet: %+v, want both verdicts push", before)
	}
	if _, _, err := m.QueryString(q); err != nil { // observes selectivity 1
		t.Fatal(err)
	}
	after := verdict()
	if after.CostPush || !strings.Contains(after.CostReason, "selectivity") {
		t.Errorf("cost verdict = push=%v reason=%q, want would-not-push on selectivity 1", after.CostPush, after.CostReason)
	}
	if !after.LivePush || !after.HeuristicPush {
		t.Errorf("after observation: %+v, want the heuristic's live push", after)
	}
}

// The statistics table is maintained across the pipeline: selectivity from
// pushdown evals, entity counts and label cardinalities from the snapshot
// build, fetch EWMA from every fetch.
func TestSourceStatsMaintained(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	if _, _, err := m.QueryString(`select G from ANNODA-GML.Gene G where G.Symbol = "` + c.Genes[0].Symbol + `"`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FusedGraph(); err != nil { // snapshot build
		t.Fatal(err)
	}
	snap := m.SourceStats()
	byName := map[string]bool{}
	for _, s := range snap {
		byName[s.Source] = true
	}
	if !byName["LocusLink"] || !byName["GO"] || !byName["OMIM"] {
		t.Fatalf("source stats = %+v, want all three sources", snap)
	}
	for _, s := range snap {
		if s.Entities == 0 {
			t.Errorf("%s: entity count not set", s.Source)
		}
		if len(s.Labels) == 0 {
			t.Errorf("%s: label cardinalities not set", s.Source)
		}
		if s.FetchCount == 0 || s.FetchEWMAMicros <= 0 {
			t.Errorf("%s: fetch EWMA not fed (count=%d ewma=%d)", s.Source, s.FetchCount, s.FetchEWMAMicros)
		}
		if s.Source == "LocusLink" {
			if len(s.Predicates) == 0 {
				t.Error("LocusLink: no pushdown selectivity observed")
			} else if p := s.Predicates[0]; p.Fetched == 0 || p.Kept >= p.Fetched {
				t.Errorf("LocusLink selectivity = %+v, want kept < fetched", p)
			}
		}
	}
	if metric(m, "annoda_plan_cache_misses_total") == 0 {
		t.Error("plan cache counters unavailable with caching enabled")
	}
}
