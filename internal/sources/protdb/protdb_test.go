package protdb

import (
	"strings"
	"testing"

	"repro/internal/datagen"
)

func smallCorpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 44, Genes: 100, GoTerms: 30, Diseases: 20,
		ConflictRate: 0.2, MissingRate: 0.1,
	})
}

func TestLoadSubsetOfGenes(t *testing.T) {
	c := smallCorpus()
	s, err := Load(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	s.Scan(func(*Protein) bool { n++; return true })
	if n == 0 || n >= len(c.Genes) {
		t.Errorf("scanned %d proteins, want a strict nonzero subset of %d", n, len(c.Genes))
	}
}

func TestRecordFields(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	var got *Protein
	s.Scan(func(p *Protein) bool { got = p; return false })
	if got == nil {
		t.Fatal("no proteins")
	}
	if !strings.HasPrefix(got.Accession, "P") {
		t.Errorf("accession = %q", got.Accession)
	}
	g := c.GeneByID(got.LocusID)
	if g == nil {
		t.Fatalf("DR link to unknown locus %d", got.LocusID)
	}
	if got.GeneName != g.Symbol {
		t.Errorf("GN = %q, want %q", got.GeneName, g.Symbol)
	}
	if !strings.Contains(got.OrganismS, g.Organism) || !strings.Contains(got.OrganismS, "(") {
		t.Errorf("OS = %q should embed binomial and common name", got.OrganismS)
	}
	if len(got.Keywords) == 0 {
		t.Error("keywords empty")
	}
}

// TestByAccessionAndGeneName: the wrapper keys each protein entity by its
// accession and links it to its gene by name, so an accession names one
// protein and every protein names a gene of the corpus.
func TestByAccessionAndGeneName(t *testing.T) {
	c := smallCorpus()
	s, _ := Load(c)
	symbols := map[string]bool{}
	for _, g := range c.Genes {
		symbols[g.Symbol] = true
	}
	seen := map[string]bool{}
	s.Scan(func(p *Protein) bool {
		if seen[p.Accession] {
			t.Errorf("accession %s names two proteins", p.Accession)
		}
		seen[p.Accession] = true
		if !symbols[p.GeneName] {
			t.Errorf("protein %s names no corpus gene (GN %q)", p.Accession, p.GeneName)
		}
		return true
	})
}
