package geneontology

import (
	"strings"
	"testing"

	"repro/internal/datagen"
)

func smallCorpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 22, Genes: 80, GoTerms: 60, Diseases: 20,
		ConflictRate: 0.2, MissingRate: 0.1,
	})
}

func TestLoadCounts(t *testing.T) {
	c := smallCorpus()
	s, err := Load(c)
	if err != nil {
		t.Fatal(err)
	}
	terms, assocs := 0, 0
	s.Terms(func(*Term) bool { terms++; return true })
	s.Associations(func(Association) bool { assocs++; return true })
	if terms != len(c.Terms) {
		t.Errorf("%d terms, want %d", terms, len(c.Terms))
	}
	wantAssocs := 0
	for _, g := range c.Genes {
		wantAssocs += len(g.GoTerms)
	}
	if assocs != wantAssocs {
		t.Errorf("%d associations, want %d", assocs, wantAssocs)
	}
}

func TestTermLookup(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	want := &c.Terms[5]
	got := s.Term(want.ID)
	if got == nil {
		t.Fatal("term not found")
	}
	if got.Name != want.Name || got.Namespace != want.Namespace {
		t.Errorf("term = %+v, want %+v", got, want)
	}
	if len(got.IsA) != len(want.Parents) {
		t.Errorf("is_a = %v, want %v", got.IsA, want.Parents)
	}
	if s.Term("GO:9999999") != nil {
		t.Error("missing term should be nil")
	}
}

func TestAssociationsForSymbolCaseInsensitive(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	byUpper := map[string][]Association{}
	lowered := 0
	s.Associations(func(a Association) bool {
		byUpper[strings.ToUpper(a.Symbol)] = append(byUpper[strings.ToUpper(a.Symbol)], a)
		if a.Symbol != strings.ToUpper(a.Symbol) {
			lowered++
		}
		return true
	})
	if lowered == 0 {
		t.Error("no association spells its symbol in lower case")
	}
	for i := range c.Genes {
		g := &c.Genes[i]
		// The association file may store the symbol lowercased; folded,
		// every one of the gene's annotations is there.
		as := byUpper[strings.ToUpper(g.Symbol)]
		if len(as) != len(g.GoTerms) {
			t.Fatalf("gene %s: %d assocs, want %d", g.Symbol, len(as), len(g.GoTerms))
		}
		// Organism uses the common name, not the binomial.
		if len(as) > 0 && as[0].Organism != g.GOOrganism {
			t.Errorf("organism = %q, want %q", as[0].Organism, g.GOOrganism)
		}
	}
}

// TestAncestorsTransitive: the is_a ids Term serves resolve to terms of the
// store all the way up — the wrapper links each term to its parents by them
// — and no term is its own ancestor.
func TestAncestorsTransitive(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	depth2 := false
	for _, tm := range c.Terms {
		seen := map[string]bool{}
		stack := append([]string(nil), s.Term(tm.ID).IsA...)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if id == tm.ID {
				t.Fatalf("term %s is its own ancestor", tm.ID)
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			p := s.Term(id)
			if p == nil {
				t.Fatalf("term %s has ancestor %s the store does not serve", tm.ID, id)
			}
			stack = append(stack, p.IsA...)
		}
		depth2 = depth2 || len(seen) > len(tm.Parents)
	}
	if !depth2 {
		t.Error("no term has a grandparent")
	}
}

func TestOBOTextParsesWithHeader(t *testing.T) {
	c := smallCorpus()
	text := OBOText(c)
	if !strings.HasPrefix(text, "format-version:") {
		t.Error("OBO header missing")
	}
	if !strings.Contains(text, "[Term]") {
		t.Error("no stanzas")
	}
}

func TestAssociationsScan(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	n := 0
	s.Associations(func(a Association) bool {
		if a.TermID == "" || a.Symbol == "" {
			t.Errorf("incomplete association: %+v", a)
		}
		n++
		return true
	})
	if n == 0 {
		t.Error("visited no association")
	}
}

func TestTermsScan(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	n := 0
	s.Terms(func(tm *Term) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}
