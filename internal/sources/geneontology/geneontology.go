// Package geneontology simulates the Gene Ontology (GO) annotation source.
//
// GO distributes its term ontology as an OBO flat file and its gene
// associations as tabular "gene association" files. This simulation keeps
// both in SRS-style flat-file libraries (internal/flatfile) — the storage
// structure the 2004-era source actually had. The ANNODA wrapper translates
// these records into OEM.
package geneontology

import (
	"fmt"
	"strings"

	"repro/internal/datagen"
	"repro/internal/flatfile"
)

// Term is one ontology term as served by this source.
type Term struct {
	ID        string
	Name      string
	Namespace string
	Def       string
	IsA       []string
}

// Association links a gene symbol (in the source's own spelling) to a term.
type Association struct {
	Symbol   string // gene symbol, often lowercase in association files
	Organism string // common name, e.g. "human" — not the binomial
	TermID   string
	Evidence string // IEA/IDA/ISS/TAS
}

// Store is a loaded GO instance.
type Store struct {
	terms  *flatfile.Library
	assocs *flatfile.Library

	byID map[string]int // term id -> record pos
}

var evidenceCodes = []string{"IEA", "IDA", "ISS", "TAS", "IMP"}

// OBOText renders the corpus's ontology in OBO flat-file form; Load parses
// it back, so the flat-file path is genuinely exercised.
func OBOText(c *datagen.Corpus) string {
	var sb strings.Builder
	sb.WriteString("format-version: 1.2\nontology: go\n\n")
	for _, t := range c.Terms {
		sb.WriteString("[Term]\n")
		fmt.Fprintf(&sb, "id: %s\n", t.ID)
		fmt.Fprintf(&sb, "name: %s\n", t.Name)
		fmt.Fprintf(&sb, "namespace: %s\n", t.Namespace)
		fmt.Fprintf(&sb, "def: %s\n", t.Def)
		for _, p := range t.Parents {
			fmt.Fprintf(&sb, "is_a: %s\n", p)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// AssocText renders the gene-association records in a tagged flat-file form.
func AssocText(c *datagen.Corpus) string {
	var sb strings.Builder
	r := datagen.NewRNG(c.Config.Seed ^ 0xA550C)
	for i := range c.Genes {
		g := &c.Genes[i]
		for _, tid := range g.GoTerms {
			// Association files are notorious for case inconsistencies;
			// lowercase a third of the symbols.
			sym := g.Symbol
			if r.Bool(0.33) {
				sym = strings.ToLower(sym)
			}
			fmt.Fprintf(&sb, "symbol: %s\n", sym)
			fmt.Fprintf(&sb, "organism: %s\n", g.GOOrganism)
			fmt.Fprintf(&sb, "go_id: %s\n", tid)
			fmt.Fprintf(&sb, "evidence: %s\n", evidenceCodes[r.Intn(len(evidenceCodes))])
			sb.WriteString("//\n")
		}
	}
	return sb.String()
}

// Load builds a GO store from the corpus by generating and re-parsing its
// flat files.
func Load(c *datagen.Corpus) (*Store, error) {
	terms, err := flatfile.Parse(strings.NewReader(OBOText(c)), flatfile.OBO)
	if err != nil {
		return nil, fmt.Errorf("geneontology: obo: %v", err)
	}
	assocs, err := flatfile.Parse(strings.NewReader(AssocText(c)), flatfile.EMBL)
	if err != nil {
		return nil, fmt.Errorf("geneontology: associations: %v", err)
	}
	s := &Store{terms: terms, assocs: assocs, byID: make(map[string]int)}
	terms.Scan(func(pos int, r *flatfile.Record) bool {
		s.byID[r.First("id")] = pos
		return true
	})
	return s, nil
}

// Term returns the term with the given GO id, or nil.
func (s *Store) Term(id string) *Term {
	pos, ok := s.byID[id]
	if !ok {
		return nil
	}
	return recordToTerm(s.terms.Get(pos))
}

func recordToTerm(r *flatfile.Record) *Term {
	if r == nil {
		return nil
	}
	return &Term{
		ID:        r.First("id"),
		Name:      r.First("name"),
		Namespace: r.First("namespace"),
		Def:       r.First("def"),
		IsA:       r.All("is_a"),
	}
}

// Terms visits every term.
func (s *Store) Terms(visit func(*Term) bool) {
	s.terms.Scan(func(_ int, r *flatfile.Record) bool {
		return visit(recordToTerm(r))
	})
}

// Associations visits every association record.
func (s *Store) Associations(visit func(Association) bool) {
	s.assocs.Scan(func(_ int, r *flatfile.Record) bool {
		return visit(recordToAssoc(r))
	})
}

func recordToAssoc(r *flatfile.Record) Association {
	return Association{
		Symbol:   r.First("symbol"),
		Organism: r.First("organism"),
		TermID:   r.First("go_id"),
		Evidence: r.First("evidence"),
	}
}
