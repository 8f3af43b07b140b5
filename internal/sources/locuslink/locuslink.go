// Package locuslink simulates the NCBI LocusLink annotation source.
//
// LocusLink (retired in 2005, succeeded by Entrez Gene) served curated gene
// loci: identifiers, official symbols, organism, description, cytogenetic
// position, and cross-links to other databases — exactly the fragment the
// ANNODA paper models in Figures 2 and 3 (LocusID, Organism, Symbol,
// Description, Position, Links).
//
// This simulation stores its data in a relational engine (relstore), because
// that is the storage structure the real source had; the ANNODA wrapper then
// has to do genuine relational-to-OEM translation work.
package locuslink

import (
	"fmt"
	"strings"

	"repro/internal/datagen"
	"repro/internal/relstore"
)

// DB is a loaded LocusLink instance.
type DB struct {
	rel *relstore.DB
}

// Locus is one native LocusLink record.
type Locus struct {
	LocusID     int
	Symbol      string
	Organism    string
	Description string // "" when absent
	Position    string
	Aliases     []string
	Links       []Link
}

// Link is a cross-reference to another database.
type Link struct {
	TargetDB string // "GO" or "OMIM"
	TargetID string
	URL      string
}

// URL prefixes shaping the web-links ANNODA navigates. SelfURL identifies
// a locus's own report page.
const (
	GOURLPrefix   = "http://www.geneontology.org/"
	OMIMURLPrefix = "http://www.ncbi.nlm.nih.gov/omim/"
	LLURLPrefix   = "http://www.ncbi.nlm.nih.gov/LocusLink/LocRpt.cgi?l="
)

// SelfURL returns the web-link for a locus report page.
func SelfURL(locusID int) string { return fmt.Sprintf("%s%d", LLURLPrefix, locusID) }

// Load builds a LocusLink database from the synthetic corpus.
func Load(c *datagen.Corpus) (*DB, error) {
	rel := relstore.NewDB()
	locus, err := rel.Create(relstore.Schema{
		Name: "locus",
		Key:  "locus_id",
		Columns: []relstore.Column{
			{Name: "locus_id", Type: relstore.TInt},
			{Name: "symbol", Type: relstore.TText},
			{Name: "organism", Type: relstore.TText},
			{Name: "description", Type: relstore.TText, Nullable: true},
			{Name: "position", Type: relstore.TText},
		},
	})
	if err != nil {
		return nil, err
	}
	alias, err := rel.Create(relstore.Schema{
		Name: "alias",
		Columns: []relstore.Column{
			{Name: "locus_id", Type: relstore.TInt},
			{Name: "alias", Type: relstore.TText},
		},
	})
	if err != nil {
		return nil, err
	}
	link, err := rel.Create(relstore.Schema{
		Name: "link",
		Columns: []relstore.Column{
			{Name: "locus_id", Type: relstore.TInt},
			{Name: "target_db", Type: relstore.TText},
			{Name: "target_id", Type: relstore.TText},
			{Name: "url", Type: relstore.TText},
		},
	})
	if err != nil {
		return nil, err
	}
	for i := range c.Genes {
		g := &c.Genes[i]
		desc := any(g.Description)
		if g.LLMissingDesc {
			desc = nil
		}
		if _, err := locus.InsertVals(g.LocusID, g.Symbol, g.Organism, desc, g.Position); err != nil {
			return nil, err
		}
		for _, a := range g.Aliases {
			if _, err := alias.InsertVals(g.LocusID, a); err != nil {
				return nil, err
			}
		}
		for _, tid := range g.GoTerms {
			if _, err := link.InsertVals(g.LocusID, "GO", tid, GOURLPrefix+tid); err != nil {
				return nil, err
			}
		}
		for _, mim := range g.Diseases {
			id := fmt.Sprintf("%d", mim)
			if _, err := link.InsertVals(g.LocusID, "OMIM", id, OMIMURLPrefix+id); err != nil {
				return nil, err
			}
		}
	}
	for _, idx := range []struct{ table, col string }{
		{"alias", "locus_id"},
		{"link", "locus_id"},
		{"locus", "symbol"},
	} {
		if err := rel.Table(idx.table).CreateIndex(idx.col); err != nil {
			return nil, err
		}
	}
	return &DB{rel: rel}, nil
}

// BySymbol fetches loci whose official symbol matches (case-insensitive,
// via the symbol index plus a case fix-up scan on miss).
func (db *DB) BySymbol(symbol string) []*Locus {
	t := db.rel.Table("locus")
	rids, _ := t.IndexLookup("symbol", relstore.Text(symbol))
	if len(rids) == 0 {
		// Case-insensitive fallback scan.
		t.Scan(func(rid relstore.RowID, row relstore.Row) bool {
			if strings.EqualFold(row[1].S, symbol) {
				rids = append(rids, rid)
			}
			return true
		})
	}
	var out []*Locus
	for _, rid := range rids {
		if row := t.Get(rid); row != nil {
			out = append(out, db.assemble(row))
		}
	}
	return out
}

// Scan visits every locus in storage order.
func (db *DB) Scan(visit func(*Locus) bool) {
	var rows []relstore.Row
	db.rel.Table("locus").Scan(func(_ relstore.RowID, row relstore.Row) bool {
		rows = append(rows, row.Clone())
		return true
	})
	for _, row := range rows {
		if !visit(db.assemble(row)) {
			return
		}
	}
}

func (db *DB) assemble(row relstore.Row) *Locus {
	l := &Locus{
		LocusID:  int(row[0].I),
		Symbol:   row[1].S,
		Organism: row[2].S,
		Position: row[4].S,
	}
	if !row[3].IsNull() {
		l.Description = row[3].S
	}
	key := relstore.Int(int64(l.LocusID))
	at := db.rel.Table("alias")
	if rids, ok := at.IndexLookup("locus_id", key); ok {
		for _, rid := range rids {
			if r := at.Get(rid); r != nil {
				l.Aliases = append(l.Aliases, r[1].S)
			}
		}
	}
	lt := db.rel.Table("link")
	if rids, ok := lt.IndexLookup("locus_id", key); ok {
		for _, rid := range rids {
			if r := lt.Get(rid); r != nil {
				l.Links = append(l.Links, Link{TargetDB: r[1].S, TargetID: r[2].S, URL: r[3].S})
			}
		}
	}
	return l
}

// Update modifies a locus record in place (used by the staleness
// experiment: the warehouse does not see source updates until refreshed).
func (db *DB) Update(id int, mutate func(*Locus)) error {
	t := db.rel.Table("locus")
	rid, row := t.GetByKey(relstore.Int(int64(id)))
	if row == nil {
		return fmt.Errorf("locuslink: no locus %d", id)
	}
	l := db.assemble(row)
	mutate(l)
	desc := relstore.Text(l.Description)
	if l.Description == "" {
		desc = relstore.Null
	}
	return t.Update(rid, relstore.Row{
		relstore.Int(int64(l.LocusID)),
		relstore.Text(l.Symbol),
		relstore.Text(l.Organism),
		desc,
		relstore.Text(l.Position),
	})
}
