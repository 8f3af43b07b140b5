package warehouse

import (
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/match"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/wrapper"
)

func fixture(t testing.TB) (*datagen.Corpus, *wrapper.Registry, *gml.Global, *locuslink.DB) {
	t.Helper()
	c := datagen.Generate(datagen.Config{
		Seed: 101, Genes: 50, GoTerms: 30, Diseases: 25,
		ConflictRate: 0.3, MissingRate: 0.15,
	})
	ll, err := locuslink.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	gos, err := geneontology.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	om, err := omim.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	reg := wrapper.NewRegistry()
	_ = reg.Add(wrapper.NewLocusLink(ll))
	_ = reg.Add(wrapper.NewGeneOntology(gos))
	_ = reg.Add(wrapper.NewOMIM(om))
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, reg, gl, ll
}

func TestETLLoadsAllConcepts(t *testing.T) {
	c, reg, gl, _ := fixture(t)
	w := New(reg, gl)
	if _, err := w.Query(`SELECT * FROM gene`); err == nil {
		t.Error("query before load should fail")
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	rs, err := w.Query(`SELECT gene_id FROM gene`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(c.Genes) {
		t.Errorf("%d genes loaded, want %d", len(rs.Rows), len(c.Genes))
	}
	rs, _ = w.Query(`SELECT mim FROM disease`)
	if len(rs.Rows) != len(c.Diseases) {
		t.Errorf("%d diseases, want %d", len(rs.Rows), len(c.Diseases))
	}
	wantAssocs := 0
	for _, g := range c.Genes {
		wantAssocs += len(g.GoTerms)
	}
	rs, _ = w.Query(`SELECT go_id FROM annotation`)
	if len(rs.Rows) != wantAssocs {
		t.Errorf("%d annotations, want %d", len(rs.Rows), wantAssocs)
	}
}

func TestFigure5bMatchesGroundTruth(t *testing.T) {
	c, reg, gl, _ := fixture(t)
	w := New(reg, gl)
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	got, err := w.Figure5b()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, id := range c.GenesWithGoButNotOMIM() {
		want = append(want, c.GeneByID(id).Symbol)
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d symbols, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: %s != %s", i, got[i], want[i])
		}
	}
}

func TestStalenessUntilRefresh(t *testing.T) {
	c, reg, gl, ll := fixture(t)
	w := New(reg, gl)
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	target := c.Genes[0]
	if err := ll.Update(target.LocusID, func(l *locuslink.Locus) { l.Symbol = "WHSTALE1" }); err != nil {
		t.Fatal(err)
	}
	reg.Get("LocusLink").Refresh()
	// Warehouse still serves the old symbol: it is stale by design.
	rs, err := w.Query(`SELECT symbol FROM gene WHERE symbol = 'WHSTALE1'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Error("warehouse saw source update without refresh")
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	rs, _ = w.Query(`SELECT symbol FROM gene WHERE symbol = 'WHSTALE1'`)
	if len(rs.Rows) != 1 {
		t.Error("refresh did not pick up source update")
	}
}

func TestReconcileAtLoad(t *testing.T) {
	c, reg, gl, _ := fixture(t)
	w := New(reg, gl)
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	// The warehouse gene table holds exactly one position per gene (the
	// primary source's), even for conflicting genes.
	for _, id := range c.ConflictingGenes() {
		g := c.GeneByID(id)
		rs, err := w.Query(`SELECT position FROM gene WHERE symbol = '` + g.Symbol + `'`)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("gene %d has %d rows", id, len(rs.Rows))
		}
		if rs.Rows[0][0].S != g.Position {
			t.Errorf("gene %d position = %q, want primary %q", id, rs.Rows[0][0].S, g.Position)
		}
	}
}

func TestArchiveAndRestore(t *testing.T) {
	_, reg, gl, ll := fixture(t)
	w := New(reg, gl)
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	before, _ := w.Query(`SELECT gene_id FROM gene`)
	if err := w.Archive("v1"); err != nil {
		t.Fatal(err)
	}
	if len(w.archives) != 1 || w.archives["v1"] == nil {
		t.Errorf("archives = %v", w.archives)
	}
	// Mutate the source, refresh, verify change, then restore the archive.
	var anyID int
	ll.Scan(func(l *locuslink.Locus) bool { anyID = l.LocusID; return false })
	if err := ll.Update(anyID, func(l *locuslink.Locus) { l.Symbol = "ARCHTEST1" }); err != nil {
		t.Fatal(err)
	}
	reg.Get("LocusLink").Refresh()
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	rs, _ := w.Query(`SELECT symbol FROM gene WHERE symbol = 'ARCHTEST1'`)
	if len(rs.Rows) != 1 {
		t.Fatal("refresh missed update")
	}
	if err := w.Restore("v1"); err != nil {
		t.Fatal(err)
	}
	rs, _ = w.Query(`SELECT symbol FROM gene WHERE symbol = 'ARCHTEST1'`)
	if len(rs.Rows) != 0 {
		t.Error("restore did not roll back")
	}
	after, _ := w.Query(`SELECT gene_id FROM gene`)
	if len(after.Rows) != len(before.Rows) {
		t.Errorf("restored %d rows, want %d", len(after.Rows), len(before.Rows))
	}
	if err := w.Restore("nosuch"); err == nil {
		t.Error("restore of unknown tag accepted")
	}
}
