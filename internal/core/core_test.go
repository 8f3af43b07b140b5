package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mediator"
	"repro/internal/sources/locuslink"
)

func system(t testing.TB) *System {
	t.Helper()
	c := datagen.Generate(datagen.Config{
		Seed: 555, Genes: 60, GoTerms: 40, Diseases: 30,
		ConflictRate: 0.3, MissingRate: 0.15,
	})
	s, err := New(c, mediator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQuestionToLorel(t *testing.T) {
	s := system(t)
	cases := []struct {
		q    Question
		want string
	}{
		{Figure5bQuestion(),
			`select G from ANNODA-GML.Gene G where (exists G.Annotation) and not exists G.Disease`},
		{Question{Include: []string{"GO", "OMIM"}, Combine: CombineAll},
			`select G from ANNODA-GML.Gene G where (exists G.Annotation and exists G.Disease)`},
		{Question{Include: []string{"GO", "OMIM"}, Combine: CombineAny},
			`select G from ANNODA-GML.Gene G where (exists G.Annotation or exists G.Disease)`},
		{Question{Conditions: []Condition{{Field: "Organism", Op: "=", Value: "Homo sapiens"}}},
			`select G from ANNODA-GML.Gene G where G.Organism = "Homo sapiens"`},
		{Question{Conditions: []Condition{{Field: "Symbol", Op: "like", Value: "A%"}}},
			`select G from ANNODA-GML.Gene G where G.Symbol like "A%"`},
		{Question{}, `select G from ANNODA-GML.Gene G`},
	}
	for i, c := range cases {
		got, err := s.ToLorel(c.q)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got != c.want {
			t.Errorf("case %d:\ngot  %s\nwant %s", i, got, c.want)
		}
	}
}

func TestQuestionErrors(t *testing.T) {
	s := system(t)
	bad := []Question{
		{Include: []string{"NoSuchSource"}},
		{Exclude: []string{"LocusLink"}}, // gene source, not an annotation source
		{Conditions: []Condition{{Field: "Sym bol", Op: "=", Value: "x"}}},
		{Conditions: []Condition{{Field: "Symbol", Op: "~~", Value: "x"}}},
	}
	for i, q := range bad {
		if _, err := s.ToLorel(q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAskFigure5bMatchesGroundTruth(t *testing.T) {
	s := system(t)
	v, stats, err := s.Ask(Figure5bQuestion())
	if err != nil {
		t.Fatal(err)
	}
	want := s.Corpus.GenesWithGoButNotOMIM()
	if len(v.Rows) != len(want) {
		t.Fatalf("%d rows, ground truth %d\n%s", len(v.Rows), len(want), stats.String())
	}
	wantSet := map[int]bool{}
	for _, id := range want {
		wantSet[id] = true
	}
	for _, r := range v.Rows {
		if !wantSet[int(r.GeneID)] {
			t.Errorf("gene %d not in ground truth", r.GeneID)
		}
		if len(r.GoIDs) == 0 {
			t.Errorf("gene %s has no GO ids in view", r.Symbol)
		}
		if len(r.MimIDs) != 0 {
			t.Errorf("gene %s has OMIM ids despite exclusion", r.Symbol)
		}
	}
	// The view is renderable and mentions the query.
	out := v.Format()
	if !strings.Contains(out, "ANNODA-GML.Gene") || !strings.Contains(out, "Symbol") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestViewRowsSortedAndLinked(t *testing.T) {
	s := system(t)
	v, _, err := s.Ask(Question{Include: []string{"GO"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(v.Rows); i++ {
		if v.Rows[i-1].Symbol > v.Rows[i].Symbol {
			t.Fatal("rows not sorted by symbol")
		}
	}
	// Rows carry web-links for Figure 5(c) navigation.
	found := false
	for _, r := range v.Rows {
		if len(r.WebLinks) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no view row carries web-links")
	}
}

func TestObjectViewFollowsWebLink(t *testing.T) {
	s := system(t)
	g := &s.Corpus.Genes[0]
	out, err := s.ObjectView(locuslink.SelfURL(g.LocusID))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, g.Symbol) {
		t.Errorf("object view missing symbol:\n%s", out)
	}
	if _, err := s.ObjectView("http://dead.test/"); err == nil {
		t.Error("dead link accepted")
	}
}

func TestAnnotateBatch(t *testing.T) {
	s := system(t)
	var symbols []string
	for i := range s.Corpus.Genes {
		symbols = append(symbols, s.Corpus.Genes[i].Symbol)
	}
	symbols = append(symbols, "NOSUCHGENE")
	results, err := s.AnnotateBatch(symbols, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(symbols) {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results[:len(results)-1] {
		if r.Err != nil {
			t.Fatalf("symbol %s: %v", r.Symbol, r.Err)
		}
		truth := &s.Corpus.Genes[i]
		if r.Row == nil || int(r.Row.GeneID) != truth.LocusID {
			t.Errorf("symbol %s: row %+v", r.Symbol, r.Row)
		}
		if len(r.Row.GoIDs) != len(truth.GoTerms) {
			t.Errorf("symbol %s: %d GO ids, want %d", r.Symbol, len(r.Row.GoIDs), len(truth.GoTerms))
		}
	}
	if results[len(results)-1].Err == nil {
		t.Error("unknown symbol should error")
	}
}

// TestAnnotateBatchRowIsAskRow: one gene has one integrated row whichever
// entry point built it. With ProtDB plugged in, every gene's AnnotateBatch
// row equals its row in the Ask view — proteins and web-links included.
// The two questions both name every concept and together cover every gene.
func TestAnnotateBatchRowIsAskRow(t *testing.T) {
	s := system(t)
	if err := s.PlugInProteins(); err != nil {
		t.Fatal(err)
	}
	all := []string{"GO", "OMIM", "ProtDB"}
	askRows := map[string]ViewRow{}
	for _, q := range []Question{{Include: all, Combine: CombineAny}, {Exclude: all}} {
		v, _, err := s.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range v.Rows {
			askRows[r.Symbol] = r
		}
	}
	var symbols []string
	for i := range s.Corpus.Genes {
		symbols = append(symbols, s.Corpus.Genes[i].Symbol)
	}
	results, err := s.AnnotateBatch(symbols, 4)
	if err != nil {
		t.Fatal(err)
	}
	proteins := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("symbol %s: %v", r.Symbol, r.Err)
		}
		want, ok := askRows[r.Row.Symbol]
		if !ok {
			t.Fatalf("symbol %s: no Ask row", r.Symbol)
		}
		if !reflect.DeepEqual(*r.Row, want) {
			t.Errorf("symbol %s:\nAnnotateBatch %+v\nAsk           %+v", r.Symbol, *r.Row, want)
		}
		proteins += len(r.Row.Proteins)
	}
	if proteins == 0 {
		t.Error("no batch row carries a protein: ProtDB did not reach the rows")
	}
}

func TestPlugInProteinsEndToEnd(t *testing.T) {
	s := system(t)
	if err := s.PlugInProteins(); err != nil {
		t.Fatal(err)
	}
	// Questions can now include ProtDB.
	v, _, err := s.Ask(Question{Include: []string{"ProtDB"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) == 0 {
		t.Fatal("no genes with proteins after plug-in")
	}
	for _, r := range v.Rows[:1] {
		if len(r.Proteins) == 0 {
			t.Error("row lacks protein accession")
		}
	}
	// Double plug-in errors cleanly.
	if err := s.PlugInProteins(); err == nil {
		t.Error("duplicate plug-in accepted")
	}
}

func TestConflictsSurfaceInView(t *testing.T) {
	s := system(t)
	v, _, err := s.Ask(Question{Include: []string{"OMIM"}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Conflicts == 0 {
		t.Error("expected reconciled conflicts in a conflict-injected corpus")
	}
}
