package warehouse

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/match"
	"repro/internal/relstore"
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

// TestArchiveHeaders pins each archived table's typed CSV header: the
// column order, types, key and nullability the warehouse schema declares.
func TestArchiveHeaders(t *testing.T) {
	_, reg, gl, _ := fixture(t)
	w := New(reg, gl)
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := w.Archive("v1"); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"annotation":   "symbol:text,go_id:text,evidence:text:null,organism:text:null",
		"disease":      "mim:int:key,title:text,position:text:null,inheritance:text:null",
		"disease_gene": "mim:int,gene_id:int",
		"gene":         "gene_id:int:key,symbol:text,organism:text,description:text:null,position:text:null,src:text",
		"protein":      "accession:text:key,symbol:text,gene_id:int:null,description:text:null",
	}
	snap := w.archives["v1"]
	if len(snap) != len(want) {
		t.Fatalf("archived %d tables, want %d", len(snap), len(want))
	}
	for name, header := range want {
		got, _, _ := strings.Cut(string(snap[name]), "\n")
		if got != header {
			t.Errorf("%s header = %q, want %q", name, got, header)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := relstore.NewDB()
	tab, err := db.Create(relstore.Schema{Name: "gene", Key: "locus_id", Columns: []relstore.Column{
		{Name: "locus_id", Type: relstore.TInt},
		{Name: "symbol", Type: relstore.TText},
		{Name: "organism", Type: relstore.TText, Nullable: true},
		{Name: "weight", Type: relstore.TFloat, Nullable: true},
		{Name: "coding", Type: relstore.TBool, Nullable: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = tab.InsertVals(1, "A", "human", 2.5, true)
	_, _ = tab.InsertVals(2, "B", nil, nil, nil)
	_, _ = tab.InsertVals(3, "C,with,commas", "with \"quotes\"", -1.0, false)
	var sb strings.Builder
	if err := dumpCSV(tab, &sb); err != nil {
		t.Fatal(err)
	}
	tab2, err := loadCSV(relstore.NewDB(), "gene", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("loadCSV: %v\ncsv:\n%s", err, sb.String())
	}
	n := 0
	tab2.Scan(func(relstore.RowID, relstore.Row) bool { n++; return true })
	if n != 3 {
		t.Fatalf("restored %d rows", n)
	}
	_, r := tab2.GetByKey(relstore.Int(2))
	if r == nil || !r[2].IsNull() || !r[3].IsNull() {
		t.Errorf("NULLs not preserved: %v", r)
	}
	_, r = tab2.GetByKey(relstore.Int(3))
	if r[1].S != "C,with,commas" || r[2].S != `with "quotes"` {
		t.Errorf("quoting broken: %v", r)
	}
	if s2 := tab2.Schema(); s2.Key != "locus_id" || s2.Columns[1].Nullable || !s2.Columns[2].Nullable {
		t.Errorf("key or nullability not preserved: %+v", s2)
	}
}
