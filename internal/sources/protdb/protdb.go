// Package protdb simulates a SwissProt-like protein annotation source.
//
// It is not one of the paper's three demo sources; it exists for the
// paper's first design requirement — "a new annotation data source should
// be plugged in as it comes into existence" — and is wired in at runtime by
// experiment E11. Its schema deliberately uses different label spellings
// (AC/GN/OS/DE/KW) and value encodings ("Homo sapiens (Human)") so the MDSM
// matcher has real work to do.
package protdb

import (
	"fmt"
	"strings"

	"repro/internal/datagen"
	"repro/internal/flatfile"
)

// Protein is one record.
type Protein struct {
	Accession string   // "P10001"-style
	GeneName  string   // the gene symbol, SwissProt spelling
	OrganismS string   // "Homo sapiens (Human)"
	Descr     string   // protein description
	Keywords  []string // free keywords
	LocusID   int      // ground-truth link (exposed as DR line)
}

// Store is a loaded protein databank.
type Store struct {
	lib *flatfile.Library
}

// Text renders protein records in SwissProt-flavoured tagged form. Roughly
// 70% of corpus genes get a protein record.
func Text(c *datagen.Corpus) string {
	var sb strings.Builder
	r := datagen.NewRNG(c.Config.Seed ^ 0x5E15)
	for i := range c.Genes {
		g := &c.Genes[i]
		if r.Bool(0.3) {
			continue
		}
		fmt.Fprintf(&sb, "AC: P%05d\n", 10000+i)
		fmt.Fprintf(&sb, "GN: %s\n", g.Symbol)
		common := g.GOOrganism
		fmt.Fprintf(&sb, "OS: %s (%s)\n", g.Organism, strings.ToUpper(common[:1])+common[1:])
		fmt.Fprintf(&sb, "DE: %s protein\n", g.Description)
		fmt.Fprintf(&sb, "KW: %s\n", "annotated; simulated")
		fmt.Fprintf(&sb, "DR: LocusLink; %d\n", g.LocusID)
		sb.WriteString("//\n")
	}
	return sb.String()
}

// Load builds the protein store from the corpus.
func Load(c *datagen.Corpus) (*Store, error) {
	lib, err := flatfile.Parse(strings.NewReader(Text(c)), flatfile.EMBL)
	if err != nil {
		return nil, fmt.Errorf("protdb: %v", err)
	}
	return &Store{lib: lib}, nil
}

// Scan visits every protein.
func (s *Store) Scan(visit func(*Protein) bool) {
	s.lib.Scan(func(_ int, r *flatfile.Record) bool {
		return visit(recordToProtein(r))
	})
}

func recordToProtein(r *flatfile.Record) *Protein {
	if r == nil {
		return nil
	}
	p := &Protein{
		Accession: r.First("AC"),
		GeneName:  r.First("GN"),
		OrganismS: r.First("OS"),
		Descr:     r.First("DE"),
	}
	for _, kw := range strings.Split(r.First("KW"), ";") {
		kw = strings.TrimSpace(kw)
		if kw != "" {
			p.Keywords = append(p.Keywords, kw)
		}
	}
	for _, dr := range r.All("DR") {
		var id int
		if _, err := fmt.Sscanf(dr, "LocusLink; %d", &id); err == nil {
			p.LocusID = id
		}
	}
	return p
}
