package locuslink

import (
	"strings"
	"testing"

	"repro/internal/datagen"
)

func smallCorpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 11, Genes: 60, GoTerms: 40, Diseases: 25,
		ConflictRate: 0.3, MissingRate: 0.2,
	})
}

func TestLoadAndCounts(t *testing.T) {
	c := smallCorpus()
	db, err := Load(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	db.Scan(func(*Locus) bool { n++; return true })
	if n != len(c.Genes) {
		t.Errorf("scanned %d loci, want %d", n, len(c.Genes))
	}
}

// byLocusID finds one locus by its id through Scan, the way the wrapper
// reads the source; nil when there is none.
func byLocusID(db *DB, id int) *Locus {
	var found *Locus
	db.Scan(func(l *Locus) bool {
		if l.LocusID == id {
			found = l
		}
		return found == nil
	})
	return found
}

func TestByLocusID(t *testing.T) {
	c := smallCorpus()
	db, err := Load(c)
	if err != nil {
		t.Fatal(err)
	}
	g := &c.Genes[0]
	l := byLocusID(db, g.LocusID)
	if l == nil {
		t.Fatal("locus not found")
	}
	if l.Symbol != g.Symbol || l.Organism != g.Organism || l.Position != g.Position {
		t.Errorf("locus = %+v, gene = %+v", l, g)
	}
	if g.LLMissingDesc && l.Description != "" {
		t.Error("missing description leaked")
	}
	if !g.LLMissingDesc && l.Description != g.Description {
		t.Error("description mismatch")
	}
	if len(l.Aliases) != len(g.Aliases) {
		t.Errorf("aliases = %v, want %v", l.Aliases, g.Aliases)
	}
	wantLinks := len(g.GoTerms) + len(g.Diseases)
	if len(l.Links) != wantLinks {
		t.Errorf("links = %d, want %d", len(l.Links), wantLinks)
	}
	for _, lk := range l.Links {
		switch lk.TargetDB {
		case "GO":
			if !strings.HasPrefix(lk.URL, GOURLPrefix) {
				t.Errorf("GO url = %q", lk.URL)
			}
		case "OMIM":
			if !strings.HasPrefix(lk.URL, OMIMURLPrefix) {
				t.Errorf("OMIM url = %q", lk.URL)
			}
		default:
			t.Errorf("unexpected target db %q", lk.TargetDB)
		}
	}
	if byLocusID(db, -1) != nil {
		t.Error("missing id should be nil")
	}
}

func TestBySymbol(t *testing.T) {
	c := smallCorpus()
	db, _ := Load(c)
	g := &c.Genes[3]
	ls := db.BySymbol(g.Symbol)
	if len(ls) != 1 || ls[0].LocusID != g.LocusID {
		t.Fatalf("BySymbol(%q) = %+v", g.Symbol, ls)
	}
	// Case-insensitive fallback.
	ls = db.BySymbol(strings.ToLower(g.Symbol))
	if len(ls) != 1 {
		t.Errorf("case-insensitive BySymbol failed")
	}
	if got := db.BySymbol("NOSUCHGENE99"); len(got) != 0 {
		t.Errorf("unexpected hit: %+v", got)
	}
}

func TestScanVisitsAll(t *testing.T) {
	c := smallCorpus()
	db, _ := Load(c)
	n := 0
	db.Scan(func(*Locus) bool { n++; return true })
	if n != len(c.Genes) {
		t.Errorf("scan visited %d", n)
	}
	n = 0
	db.Scan(func(*Locus) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestUpdate(t *testing.T) {
	c := smallCorpus()
	db, _ := Load(c)
	id := c.Genes[0].LocusID
	if err := db.Update(id, func(l *Locus) { l.Description = "UPDATED DESC" }); err != nil {
		t.Fatal(err)
	}
	if got := byLocusID(db, id).Description; got != "UPDATED DESC" {
		t.Errorf("description = %q", got)
	}
	if err := db.Update(-5, func(*Locus) {}); err == nil {
		t.Error("update of missing locus should error")
	}
}
