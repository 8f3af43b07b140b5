package omim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func smallCorpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 33, Genes: 80, GoTerms: 30, Diseases: 40,
		ConflictRate: 0.4, MissingRate: 0.1,
	})
}

func TestLoadCounts(t *testing.T) {
	c := smallCorpus()
	s, err := Load(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Scan(func(*Entry) bool { n++; return true })
	if n != len(c.Diseases) {
		t.Errorf("scanned %d entries, want %d", n, len(c.Diseases))
	}
}

func TestByMIM(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	d := &c.Diseases[0]
	e := s.ByMIM(d.MIM)
	if e == nil {
		t.Fatal("entry not found")
	}
	if e.Title != d.Title || e.Inheritance != d.Inheritance {
		t.Errorf("entry = %+v, want %+v", e, d)
	}
	if len(e.GeneSymbols) != len(d.GeneSymbols) || len(e.Loci) != len(d.Loci) {
		t.Errorf("links: %v/%v vs %v/%v", e.GeneSymbols, e.Loci, d.GeneSymbols, d.Loci)
	}
	if s.ByMIM(-1) != nil {
		t.Error("missing MIM should be nil")
	}
}

func TestLocusIDPrefixRoundTrip(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	// Text uses the "LL<id>" prefixed form; entries must strip it.
	for i := range c.Diseases {
		d := &c.Diseases[i]
		if len(d.Loci) == 0 {
			continue
		}
		e := s.ByMIM(d.MIM)
		if e.Loci[0] != d.Loci[0] {
			t.Fatalf("loci = %v, want %v", e.Loci, d.Loci)
		}
		return
	}
	t.Skip("no disease with loci")
}

// entriesWhere returns the entries Scan visits that keep accepts.
func entriesWhere(s *Store, keep func(*Entry) bool) []*Entry {
	var out []*Entry
	s.Scan(func(e *Entry) bool {
		if keep(e) {
			out = append(out, e)
		}
		return true
	})
	return out
}

func TestByGeneSymbolUsesOMIMSpelling(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	for i := range c.Genes {
		g := &c.Genes[i]
		if len(g.Diseases) == 0 {
			continue
		}
		// OMIM lists the gene under its own (possibly stale) spelling.
		es := entriesWhere(s, func(e *Entry) bool {
			for _, gs := range e.GeneSymbols {
				if strings.EqualFold(gs, g.OMIMSymbol) {
					return true
				}
			}
			return false
		})
		found := false
		for _, e := range es {
			for _, mim := range g.Diseases {
				if e.MIM == mim {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("entries listing %q missed gene %d's diseases %v", g.OMIMSymbol, g.LocusID, g.Diseases)
		}
		return
	}
	t.Skip("no gene with diseases")
}

func TestByLocusID(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	for i := range c.Genes {
		g := &c.Genes[i]
		if len(g.Diseases) == 0 {
			continue
		}
		es := entriesWhere(s, func(e *Entry) bool { return slices.Contains(e.Loci, g.LocusID) })
		if len(es) == 0 {
			t.Fatalf("no entry links locus %d, want %v", g.LocusID, g.Diseases)
		}
		return
	}
	t.Skip("no gene with diseases")
}

func TestConflictingPositionsSurface(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	// For a conflicting gene that is some disease's first locus, OMIM's CD
	// must carry the "chr" form.
	for _, id := range c.ConflictingGenes() {
		g := c.GeneByID(id)
		if len(g.Diseases) == 0 {
			continue
		}
		for _, mim := range g.Diseases {
			d := c.DiseaseByMIM(mim)
			if len(d.Loci) > 0 && d.Loci[0] == id {
				e := s.ByMIM(mim)
				if !strings.HasPrefix(e.Position, "chr") {
					t.Fatalf("expected chr-form position, got %q", e.Position)
				}
				return
			}
		}
	}
	t.Skip("no conflicting gene is first locus of a disease")
}

func TestScan(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	n := 0
	s.Scan(func(e *Entry) bool {
		if e.MIM == 0 {
			t.Error("entry without MIM")
		}
		n++
		return true
	})
	if n != len(c.Diseases) {
		t.Errorf("visited %d", n)
	}
}
