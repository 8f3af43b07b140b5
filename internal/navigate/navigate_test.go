package navigate

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/wrapper"
)

func fixture(t testing.TB) (*datagen.Corpus, *wrapper.Registry, *Hypertext) {
	t.Helper()
	c := datagen.Generate(datagen.Config{
		Seed: 99, Genes: 50, GoTerms: 30, Diseases: 25,
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
	return c, reg, &Hypertext{LL: ll, GO: gos, OM: om}
}

func TestResolverIndexesAllSources(t *testing.T) {
	c, reg, _ := fixture(t)
	r, err := NewResolver(reg)
	if err != nil {
		t.Fatal(err)
	}
	// Every gene, term and disease has a self url, and each resolves to its
	// own source.
	urls := map[string]bool{}
	for _, w := range reg.All() {
		g, err := w.Model()
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range g.Get(g.Root(w.Name())).Refs {
			for _, u := range g.Children(ref.Target, "WebLink") {
				url := g.Get(u).Str
				if tgt, ok := r.Resolve(url); !ok || tgt.Source != w.Name() {
					t.Errorf("%s url %s resolves to %v %v", w.Name(), url, tgt, ok)
				}
				urls[url] = true
			}
		}
	}
	if wantMin := len(c.Genes) + len(c.Terms) + len(c.Diseases); len(urls) < wantMin {
		t.Errorf("%d urls indexed, want at least %d", len(urls), wantMin)
	}
	g := &c.Genes[0]
	tgt, ok := r.Resolve(locuslink.SelfURL(g.LocusID))
	if !ok || tgt.Source != "LocusLink" {
		t.Fatalf("locus url unresolved: %v %v", tgt, ok)
	}
	if _, ok := r.Resolve("http://nowhere.test/"); ok {
		t.Error("dead url resolved")
	}
}

func TestCrossSourceNavigation(t *testing.T) {
	c, reg, _ := fixture(t)
	r, err := NewResolver(reg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a gene with a GO link and follow it to the GO source.
	var gene *datagen.Gene
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 {
			gene = &c.Genes[i]
			break
		}
	}
	if gene == nil {
		t.Skip("no annotated gene")
	}
	s := NewSession(r)
	start, err := s.Open(locuslink.SelfURL(gene.LocusID))
	if err != nil {
		t.Fatal(err)
	}
	links, err := r.OutLinks(start)
	if err != nil {
		t.Fatal(err)
	}
	var goURL string
	for _, l := range links {
		if strings.HasPrefix(l, locuslink.GOURLPrefix) {
			goURL = l
		}
	}
	if goURL == "" {
		t.Fatalf("no GO link among %v", links)
	}
	tgt, err := s.Open(goURL)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Source != "GO" {
		t.Errorf("followed GO link into %s", tgt.Source)
	}
	// History: back returns to the locus.
	back, ok := s.Back()
	if !ok || back.Source != "LocusLink" {
		t.Errorf("Back -> %v %v", back, ok)
	}
	if s.Trips != 2 {
		t.Errorf("trips = %d", s.Trips)
	}
}

func TestRenderObjectView(t *testing.T) {
	c, reg, _ := fixture(t)
	r, _ := NewResolver(reg)
	g := &c.Genes[0]
	tgt, _ := r.Resolve(locuslink.SelfURL(g.LocusID))
	out, err := r.Render(tgt)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[LocusLink object", "Symbol", g.Symbol} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFollowAll(t *testing.T) {
	c, reg, _ := fixture(t)
	r, _ := NewResolver(reg)
	var gene *datagen.Gene
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 && len(c.Genes[i].Diseases) > 0 {
			gene = &c.Genes[i]
			break
		}
	}
	if gene == nil {
		t.Skip("no doubly-linked gene")
	}
	s := NewSession(r)
	if _, err := s.Open(locuslink.SelfURL(gene.LocusID)); err != nil {
		t.Fatal(err)
	}
	targets, err := s.FollowAll()
	if err != nil {
		t.Fatal(err)
	}
	// Self link + GO links + OMIM links resolve.
	if len(targets) < len(gene.GoTerms)+len(gene.Diseases) {
		t.Errorf("followed %d targets, want >= %d", len(targets), len(gene.GoTerms)+len(gene.Diseases))
	}
}

func TestSessionEmptyStates(t *testing.T) {
	_, reg, _ := fixture(t)
	r, _ := NewResolver(reg)
	s := NewSession(r)
	if _, ok := s.Current(); ok {
		t.Error("empty session has current")
	}
	if _, ok := s.Back(); ok {
		t.Error("empty session can go back")
	}
	if _, err := s.Open("http://dead.test/"); err == nil {
		t.Error("dead link accepted")
	}
	if _, err := s.FollowAll(); err == nil {
		t.Error("FollowAll with no current should fail")
	}
}

func TestHypertextGeneCard(t *testing.T) {
	c, _, h := fixture(t)
	var gene *datagen.Gene
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 {
			gene = &c.Genes[i]
			break
		}
	}
	card := h.GeneCard(gene.Symbol)
	if card == nil {
		t.Fatal("card nil")
	}
	if card.LocusID != gene.LocusID || len(card.GoTerms) != len(gene.GoTerms) {
		t.Errorf("card = %+v", card)
	}
	// Round trips: 1 + one per link.
	wantTrips := 1 + len(gene.GoTerms) + len(gene.Diseases)
	if card.RoundTrips != wantTrips {
		t.Errorf("trips = %d, want %d", card.RoundTrips, wantTrips)
	}
	if h.GeneCard("NOSUCH") != nil {
		t.Error("unknown symbol should give nil")
	}
	if !strings.Contains(card.String(), gene.Symbol) {
		t.Error("card string missing symbol")
	}
}

func TestHypertextFigure5bMatchesGroundTruthButCostsTrips(t *testing.T) {
	c, _, h := fixture(t)
	syms, trips := h.AnswerFigure5b()
	want := map[string]bool{}
	for _, id := range c.GenesWithGoButNotOMIM() {
		want[c.GeneByID(id).Symbol] = true
	}
	if len(syms) != len(want) {
		t.Fatalf("%d symbols, want %d", len(syms), len(want))
	}
	for _, s := range syms {
		if !want[s] {
			t.Errorf("%s not in ground truth", s)
		}
	}
	// The whole point of the baseline: cost scales with links, not queries.
	if trips <= len(c.Genes) {
		t.Errorf("trips = %d, expected more than one per gene", trips)
	}
}

func TestConflictsLeakThroughHypertext(t *testing.T) {
	c, _, h := fixture(t)
	// A conflicting first-locus gene shows two positions on its card.
	for _, id := range c.ConflictingGenes() {
		g := c.GeneByID(id)
		first := false
		for _, mim := range g.Diseases {
			d := c.DiseaseByMIM(mim)
			if len(d.Loci) > 0 && d.Loci[0] == id {
				first = true
			}
		}
		if !first {
			continue
		}
		card := h.GeneCard(g.Symbol)
		if card == nil {
			continue
		}
		if len(card.Positions) < 2 {
			t.Errorf("gene %d: expected unreconciled positions, got %v", id, card.Positions)
		}
		return
	}
	t.Skip("no suitable conflicting gene")
}
