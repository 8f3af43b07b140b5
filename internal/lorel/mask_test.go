package lorel

import (
	"testing"

	"repro/internal/oem"
)

// TestEvalMasked: under a mask, matching never follows a hidden reference —
// by label step, by wildcard, or to a hidden object — and the answer's copy
// of a selected object leaves hidden references out; a nil mask is Eval.
func TestEvalMasked(t *testing.T) {
	g := testGraph(t)
	g.Freeze()
	var fosbPos oem.OID
	for _, gene := range g.Children(g.Root("DB"), "Gene") {
		if g.StringUnder(gene, "Symbol") == "FOSB" {
			fosbPos = g.Child(gene, "Position")
		}
	}
	var hide oem.Bitset
	hide.Add(int(fosbPos))
	mask := oem.NewMask([]string{"links"}, hide)
	eval := func(src string, m *oem.Mask) *Result {
		t.Helper()
		res, err := compilePlan(t, src).EvalMasked(g, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range []struct {
		src            string
		masked, unmask int
	}{
		{`select G from DB.Gene G where exists G.Links`, 0, 2},        // hidden label step
		{`select G from DB.Gene G where exists G.%.OMIM`, 0, 1},       // wildcard does not cross it
		{`select G.Position from DB.Gene G`, 2, 3},                    // hidden object is not emitted
		{`select G from DB.Gene G where G.Position like "19%"`, 1, 2}, // nor compared
		{`select G from DB.Gene G where not exists G.Position`, 1, 0},
		{`select X from DB.# X`, 15, 21},
	} {
		if got := eval(tc.src, mask).Size(); got != tc.masked {
			t.Errorf("%s under the mask: %d answers, want %d", tc.src, got, tc.masked)
		}
		if got := eval(tc.src, nil).Size(); got != tc.unmask {
			t.Errorf("%s unmasked: %d answers, want %d", tc.src, got, tc.unmask)
		}
	}

	// Answer import: the selected genes come back without Links, and FOSB
	// without its Position.
	res := eval(`select G from DB.Gene G`, mask)
	for _, gene := range res.Graph.Children(res.Answer, "G") {
		sym := res.Graph.StringUnder(gene, "Symbol")
		if res.Graph.Child(gene, "Links") != 0 {
			t.Errorf("%s: the answer's copy kept the hidden Links edge", sym)
		}
		if hasPos := res.Graph.Child(gene, "Position") != 0; hasPos == (sym == "FOSB") {
			t.Errorf("%s: Position present = %v", sym, hasPos)
		}
	}
	plain, err := compilePlan(t, `select G from DB.Gene G`).Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	unmasked := eval(`select G from DB.Gene G`, nil)
	if oem.CanonicalText(plain.Graph, "answer", plain.Answer) != oem.CanonicalText(unmasked.Graph, "answer", unmasked.Answer) {
		t.Error("EvalMasked under a nil mask differs from Eval")
	}
}

// TestResultRecordsAnswerImport: every evaluation reports its import stage on
// the Result — objects copied, and a duration inside the evaluation.
func TestResultRecordsAnswerImport(t *testing.T) {
	g := testGraph(t)
	res, err := compilePlan(t, `select G, G.Symbol from DB.Gene G`).Eval(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Graph.Len() - 1; res.Imported != want || want < 6 {
		t.Errorf("Imported = %d, answer graph holds %d objects besides the answer", res.Imported, want)
	}
	if res.ImportStart.IsZero() || res.ImportTime <= 0 {
		t.Errorf("import stage not timed: start %v, took %v", res.ImportStart, res.ImportTime)
	}
}
