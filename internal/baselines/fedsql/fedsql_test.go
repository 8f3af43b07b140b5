package fedsql

import (
	"maps"
	"sort"
	"strings"
	"testing"

	"repro/internal/baselines/warehouse"
	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/match"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/wrapper"
)

func fixture(t testing.TB) (*datagen.Corpus, *wrapper.Registry, *locuslink.DB) {
	t.Helper()
	c := datagen.Generate(datagen.Config{
		Seed: 321, Genes: 50, GoTerms: 30, Diseases: 25,
		ConflictRate: 0.3, MissingRate: 0.1,
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
	return c, reg, ll
}

func TestNicknameTablesExist(t *testing.T) {
	_, reg, _ := fixture(t)
	f := New(reg)
	db, err := f.buildNicknames()
	if err != nil {
		t.Fatal(err)
	}
	tables := db.Names()
	want := []string{"go_annotation", "go_term", "locuslink_locus", "omim_entry", "omim_gene"}
	if len(tables) != len(want) {
		t.Fatalf("tables = %v", tables)
	}
	for i := range want {
		if tables[i] != want[i] {
			t.Errorf("tables[%d] = %s, want %s", i, tables[i], want[i])
		}
	}
}

func TestSQLJoinAcrossSources(t *testing.T) {
	c, reg, _ := fixture(t)
	f := New(reg)
	rs, err := f.Query(`SELECT l.symbol, t.name FROM locuslink_locus l JOIN go_annotation a ON l.symbol = a.gene_symbol JOIN go_term t ON a.go_id = t.go_id ORDER BY l.symbol LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("cross-source join empty")
	}
	// Every returned symbol is a real gene.
	for _, r := range rs.Rows {
		found := false
		for i := range c.Genes {
			if c.Genes[i].Symbol == r[0].S {
				found = true
			}
		}
		if !found {
			t.Errorf("phantom symbol %q", r[0].S)
		}
	}
}

func TestUserFacesRawEncodings(t *testing.T) {
	_, reg, _ := fixture(t)
	f := New(reg)
	// The omim_gene.locus column holds raw "LL<id>" strings; a naive
	// numeric join silently fails — the Table 1 "requires knowledge"
	// row, demonstrated.
	rs, err := f.Query(`SELECT g.locus FROM omim_gene g WHERE g.locus IS NOT NULL LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 1 && !strings.HasPrefix(rs.Rows[0][0].S, "LL") {
		t.Errorf("locus column = %q, expected raw LL prefix", rs.Rows[0][0].S)
	}
	naive, err := f.Query(`SELECT l.symbol FROM locuslink_locus l JOIN omim_gene g ON l.locus_id = g.locus`)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Rows) != 0 {
		t.Errorf("naive numeric-vs-LL join matched %d rows, expected 0", len(naive.Rows))
	}
}

func TestFigure5bMatchesGroundTruth(t *testing.T) {
	c, reg, _ := fixture(t)
	f := New(reg)
	got, err := f.Figure5b()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, id := range c.GenesWithGoButNotOMIM() {
		want = append(want, c.GeneByID(id).Symbol)
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestFreshness(t *testing.T) {
	c, reg, ll := fixture(t)
	f := New(reg)
	if err := ll.Update(c.Genes[0].LocusID, func(l *locuslink.Locus) { l.Symbol = "FEDFRESH1" }); err != nil {
		t.Fatal(err)
	}
	reg.Get("LocusLink").Refresh()
	rs, err := f.Query(`SELECT symbol FROM locuslink_locus WHERE symbol = 'FEDFRESH1'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Error("federation query did not see live source update")
	}
}

// TestNonSelectRejected: both SQL baselines accept only SELECT. Each of
// the retired statement kinds is a parse error, before anything runs, and
// leaves the warehouse's tables as they were.
func TestNonSelectRejected(t *testing.T) {
	_, reg, _ := fixture(t)
	f := New(reg)
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := warehouse.New(reg, gl)
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	tables := []string{"annotation", "disease", "disease_gene", "gene", "protein"}
	rowCounts := func() map[string]int {
		n := map[string]int{}
		for _, tab := range tables {
			rs, err := w.Query(`SELECT * FROM ` + tab)
			if err != nil {
				t.Fatal(err)
			}
			n[tab] = len(rs.Rows)
		}
		return n
	}
	before := rowCounts()
	if before["gene"] == 0 {
		t.Fatal("the warehouse loaded no genes; the fixture exercises nothing")
	}
	cases := []struct{ kind, fed, wh string }{
		{"CREATE TABLE", `CREATE TABLE scratch (x INT)`, `CREATE TABLE scratch (x INT)`},
		{"CREATE INDEX", `CREATE INDEX ON locuslink_locus (organism)`, `CREATE INDEX ON gene (organism)`},
		{"INSERT", `INSERT INTO locuslink_locus VALUES (999999, 'NEW1', 'Homo sapiens', NULL, '1p1')`,
			`INSERT INTO gene VALUES (999999, 'NEW1', 'Homo sapiens', NULL, '1p1', 'LocusLink')`},
		{"DELETE", `DELETE FROM locuslink_locus`, `DELETE FROM gene`},
	}
	for _, c := range cases {
		if _, err := f.Query(c.fed); err == nil {
			t.Errorf("fedsql accepted %s", c.kind)
		}
		if _, err := w.Query(c.wh); err == nil {
			t.Errorf("warehouse accepted %s", c.kind)
		}
		if after := rowCounts(); !maps.Equal(after, before) {
			t.Errorf("warehouse %s changed the row counts %v to %v", c.kind, before, after)
		}
	}
	if _, err := f.Query(`SELECT nope FROM nowhere`); err == nil {
		t.Error("bad SQL accepted")
	}
}
