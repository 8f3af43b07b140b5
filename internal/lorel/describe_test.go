package lorel

import (
	"strings"
	"testing"
)

func compilePlan(t *testing.T, src string) *Plan {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDescribeRendersPlanTree(t *testing.T) {
	p := compilePlan(t, `select G.Symbol from DB.Gene G where G.Organism = "Homo sapiens" and exists G.Links.GO`)
	d := p.Describe()
	want := []string{
		"plan: select G.Symbol",
		"from[0]: DB.Gene as G",
		"nfa:",
		"where:",
		"and",
		`G.Organism = "Homo sapiens"`,
		"exists G.Links.GO",
		"select[0]: G.Symbol as Symbol",
	}
	for _, w := range want {
		if !strings.Contains(d, w) {
			t.Errorf("Describe missing %q in:\n%s", w, d)
		}
	}
}

func TestDescribeNoWhere(t *testing.T) {
	p := compilePlan(t, `select G from DB.Gene G`)
	d := p.Describe()
	if !strings.Contains(d, "where: (none)") {
		t.Errorf("Describe should mark absent where clause:\n%s", d)
	}
}

// A counted evaluation must produce exactly the answer Eval produces —
// the counters are observation, not behaviour.
func TestEvalCountedMatchesEval(t *testing.T) {
	g := testGraph(t)
	queries := []string{
		`select G.Symbol from DB.Gene G`,
		`select X from DB.Gene X where X.Organism = "Homo sapiens"`,
		`select X from DB.Gene X where exists X.Links.GO and not (exists X.Links.OMIM)`,
		`select A.Symbol from DB.Gene A, DB.Gene B where A.Position = B.Position and A.LocusID < B.LocusID`,
	}
	for _, src := range queries {
		p := compilePlan(t, src)
		plain, err := p.Eval(g)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var ec EvalCounts
		counted, err := p.EvalMasked(g, nil, &ec)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if plain.Size() != counted.Size() || plain.Bindings != counted.Bindings {
			t.Errorf("%s: counted eval diverged: size %d vs %d, bindings %d vs %d",
				src, plain.Size(), counted.Size(), plain.Bindings, counted.Bindings)
		}
		if ec.Bindings != counted.Bindings {
			t.Errorf("%s: counter Bindings=%d, result Bindings=%d", src, ec.Bindings, counted.Bindings)
		}
		if ec.WhereEvals != ec.Bindings+ec.Pruned {
			t.Errorf("%s: WhereEvals=%d != Bindings+Pruned=%d", src, ec.WhereEvals, ec.Bindings+ec.Pruned)
		}
	}
}

func TestEvalCountsCardinalities(t *testing.T) {
	g := testGraph(t)
	p := compilePlan(t, `select X.Symbol from DB.Gene X where X.Organism = "Homo sapiens"`)
	var ec EvalCounts
	res, err := p.EvalMasked(g, nil, &ec)
	if err != nil {
		t.Fatal(err)
	}
	// Three genes under the root; two are human.
	if ec.RootsMatched != 3 {
		t.Errorf("RootsMatched = %d, want 3", ec.RootsMatched)
	}
	if len(ec.FromMatched) != 1 || ec.FromMatched[0] != 3 {
		t.Errorf("FromMatched = %v, want [3]", ec.FromMatched)
	}
	if ec.WhereEvals != 3 || ec.Bindings != 2 || ec.Pruned != 1 {
		t.Errorf("where accounting = evals %d kept %d pruned %d, want 3/2/1",
			ec.WhereEvals, ec.Bindings, ec.Pruned)
	}
	if len(ec.SelectMatched) != 1 || ec.SelectMatched[0] != 2 {
		t.Errorf("SelectMatched = %v, want [2]", ec.SelectMatched)
	}
	if ec.ObjectsVisited == 0 {
		t.Error("ObjectsVisited should be nonzero")
	}
	if res.Bindings != 2 {
		t.Errorf("Bindings = %d, want 2", res.Bindings)
	}
}

// A nil *EvalCounts must be inert on every note method — the evaluator
// calls them unconditionally.
func TestEvalCountsNilInert(t *testing.T) {
	var ec *EvalCounts
	ec.noteFrom(0, 5, 10)
	ec.noteSelect(0, 2, 4)
	ec.noteWhere(true)
	ec.noteWhere(false)
	g := testGraph(t)
	p := compilePlan(t, `select G from DB.Gene G`)
	if _, err := p.EvalMasked(g, nil, nil); err != nil {
		t.Fatal(err)
	}
}
