// Package omim simulates the OMIM (Online Mendelian Inheritance in Man)
// annotation source.
//
// OMIM records describe heritable disorders and their gene relationships;
// the historical distribution format is a tagged flat file ("*FIELD*"
// blocks; we use a compact tag form over the same flatfile substrate). OMIM
// is the source whose values most often disagree with LocusLink in our
// corpus — stale gene symbols and differently-encoded cytogenetic positions
// — which is exactly the reconciliation workload the ANNODA mediator
// handles.
package omim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/datagen"
	"repro/internal/flatfile"
)

// Entry is one OMIM record as served by this source.
type Entry struct {
	MIM         int
	Title       string
	GeneSymbols []string // as OMIM spells them (possibly stale aliases)
	Loci        []int    // linked LocusIDs
	Position    string   // possibly "chr19q13.32" style
	Inheritance string
}

// Store is a loaded OMIM instance.
type Store struct {
	lib *flatfile.Library
}

// Text renders the corpus's disease records in the flat-file dialect.
func Text(c *datagen.Corpus) string {
	var sb strings.Builder
	for i := range c.Diseases {
		d := &c.Diseases[i]
		fmt.Fprintf(&sb, "NO: %d\n", d.MIM)
		fmt.Fprintf(&sb, "TI: %s\n", d.Title)
		for _, gs := range d.GeneSymbols {
			fmt.Fprintf(&sb, "GS: %s\n", gs)
		}
		for _, l := range d.Loci {
			// OMIM-side ids carry a prefix — one of the id-format
			// heterogeneities the mapping rules strip.
			fmt.Fprintf(&sb, "LL: LL%d\n", l)
		}
		// The position OMIM lists is the position of the first linked gene
		// in OMIM's own encoding, else the disease's own locus.
		pos := d.Position
		if len(d.Loci) > 0 {
			if g := c.GeneByID(d.Loci[0]); g != nil {
				pos = g.OMIMPosition
			}
		}
		fmt.Fprintf(&sb, "CD: %s\n", pos)
		fmt.Fprintf(&sb, "IH: %s\n", d.Inheritance)
		sb.WriteString("//\n")
	}
	return sb.String()
}

// Load builds an OMIM store from the corpus via its flat-file form.
func Load(c *datagen.Corpus) (*Store, error) {
	lib, err := flatfile.Parse(strings.NewReader(Text(c)), flatfile.EMBL)
	if err != nil {
		return nil, fmt.Errorf("omim: %v", err)
	}
	lib.BuildIndex("NO")
	return &Store{lib: lib}, nil
}

// ByMIM returns the entry with the given MIM number, or nil.
func (s *Store) ByMIM(mim int) *Entry {
	pos := s.lib.Find("NO", strconv.Itoa(mim))
	if len(pos) == 0 {
		return nil
	}
	return recordToEntry(s.lib.Get(pos[0]))
}

// Scan visits every entry.
func (s *Store) Scan(visit func(*Entry) bool) {
	s.lib.Scan(func(_ int, r *flatfile.Record) bool {
		return visit(recordToEntry(r))
	})
}

func recordToEntry(r *flatfile.Record) *Entry {
	if r == nil {
		return nil
	}
	e := &Entry{
		Title:       r.First("TI"),
		GeneSymbols: r.All("GS"),
		Position:    r.First("CD"),
		Inheritance: r.First("IH"),
	}
	e.MIM, _ = strconv.Atoi(r.First("NO"))
	for _, ll := range r.All("LL") {
		id, err := strconv.Atoi(strings.TrimPrefix(ll, "LL"))
		if err == nil {
			e.Loci = append(e.Loci, id)
		}
	}
	return e
}
