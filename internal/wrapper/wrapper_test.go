package wrapper

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/sources/protdb"
)

func corpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 55, Genes: 50, GoTerms: 40, Diseases: 25,
		ConflictRate: 0.3, MissingRate: 0.2,
	})
}

func allWrappers(t testing.TB, c *datagen.Corpus) (*LocusLinkWrapper, *GoWrapper, *OMIMWrapper, *ProtWrapper) {
	t.Helper()
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
	pd, err := protdb.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	return NewLocusLink(ll), NewGeneOntology(gos), NewOMIM(om), NewProtDB(pd)
}

func TestLocusLinkModelShape(t *testing.T) {
	c := corpus()
	w, _, _, _ := allWrappers(t, c)
	g, err := w.Model()
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root("LocusLink")
	if root == 0 {
		t.Fatal("no root")
	}
	loci := g.Children(root, "Locus")
	if len(loci) != len(c.Genes) {
		t.Fatalf("%d loci, want %d", len(loci), len(c.Genes))
	}
	// Figure 2/3 structure on the first locus.
	l0 := loci[0]
	if v, ok := g.IntUnder(l0, "LocusID"); !ok || v == 0 {
		t.Error("LocusID missing or zero")
	}
	for _, label := range []string{"Organism", "Symbol", "Position"} {
		if g.StringUnder(l0, label) == "" {
			t.Errorf("%s missing", label)
		}
	}
	// Any gene with links must have a Links complex of url atoms.
	for i, gene := range c.Genes {
		if len(gene.GoTerms)+len(gene.Diseases) == 0 {
			continue
		}
		links := g.Child(loci[i], "Links")
		if links == 0 {
			t.Fatalf("gene %d has cross-refs but no Links object", gene.LocusID)
		}
		lo := g.Get(links)
		if !lo.IsComplex() {
			t.Fatal("Links is not complex")
		}
		for _, r := range lo.Refs {
			if g.KindOf(r.Target) != oem.KindURL {
				t.Errorf("link %s is %v, want url", r.Label, g.KindOf(r.Target))
			}
			if r.Label != "GO" && r.Label != "OMIM" {
				t.Errorf("unexpected link label %q", r.Label)
			}
		}
		break
	}
}

func TestModelCachingAndRefresh(t *testing.T) {
	c := corpus()
	w, _, _, _ := allWrappers(t, c)
	g1, _ := w.Model()
	g2, _ := w.Model()
	if g1 != g2 {
		t.Error("model not cached")
	}
	w.Refresh()
	g3, _ := w.Model()
	if g1 == g3 {
		t.Error("refresh did not rebuild")
	}
}

func TestGoModelShape(t *testing.T) {
	c := corpus()
	_, w, _, _ := allWrappers(t, c)
	g, err := w.Model()
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root("GO")
	terms := g.Children(root, "Term")
	if len(terms) != len(c.Terms) {
		t.Fatalf("%d terms, want %d", len(terms), len(c.Terms))
	}
	anns := g.Children(root, "Annotation")
	if len(anns) == 0 {
		t.Fatal("no annotations")
	}
	// Annotations reference term objects.
	linked := 0
	for _, a := range anns {
		if g.Child(a, "Term") != 0 {
			linked++
		}
	}
	if linked != len(anns) {
		t.Errorf("%d/%d annotations linked to terms", linked, len(anns))
	}
	// IsA edges exist between term objects.
	isa := 0
	for _, tid := range terms {
		isa += len(g.Children(tid, "IsA"))
	}
	if isa == 0 {
		t.Error("no IsA edges in model")
	}
}

func TestOMIMModelRawEncodings(t *testing.T) {
	c := corpus()
	_, _, w, _ := allWrappers(t, c)
	g, err := w.Model()
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root("OMIM")
	entries := g.Children(root, "Entry")
	if len(entries) != len(c.Diseases) {
		t.Fatalf("%d entries, want %d", len(entries), len(c.Diseases))
	}
	// The Locus label must carry the raw "LL" prefix — the wrapper does not
	// clean semantics.
	foundRaw := false
	for _, e := range entries {
		for _, l := range g.Children(e, "Locus") {
			s := g.Get(l).Str
			if !strings.HasPrefix(s, "LL") {
				t.Fatalf("Locus %q lost its raw prefix", s)
			}
			foundRaw = true
		}
	}
	if !foundRaw {
		t.Skip("no entry with loci")
	}
	// Every entry has a WebLink url.
	for _, e := range entries {
		wl := g.Child(e, "WebLink")
		if wl == 0 || g.KindOf(wl) != oem.KindURL {
			t.Fatal("entry without WebLink url")
		}
	}
}

func TestInferSchema(t *testing.T) {
	c := corpus()
	w, _, _, _ := allWrappers(t, c)
	g, _ := w.Model()
	s, err := InferSchema(g, "LocusLink", "Locus")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "LocusLink" || s.Entity != "Locus" {
		t.Errorf("header = %+v", s)
	}
	id := s.Label("LocusID")
	if id == nil || id.Kind != oem.KindInt || id.Optional || id.Repeatable {
		t.Errorf("LocusID info = %+v", id)
	}
	desc := s.Label("Description")
	if desc == nil {
		t.Fatal("Description missing from schema")
	}
	if !desc.Optional {
		t.Error("Description should be optional (MissingRate > 0)")
	}
	al := s.Label("Alias")
	if al != nil && !al.Repeatable {
		t.Error("Alias should be repeatable")
	}
	links := s.Label("Links")
	if links == nil || links.Kind != oem.KindComplex {
		t.Errorf("Links info = %+v", links)
	}
	if s.Label("NoSuch") != nil {
		t.Error("phantom label")
	}
	// Error case: bad root.
	if _, err := InferSchema(g, "Nope", "Locus"); err == nil {
		t.Error("expected error for missing root")
	}
}

func TestRegistry(t *testing.T) {
	c := corpus()
	ll, gw, ow, pw := allWrappers(t, c)
	r := NewRegistry()
	for _, w := range []Wrapper{ll, gw, ow} {
		if err := r.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Add(ll); err == nil {
		t.Error("duplicate registration accepted")
	}
	if got := r.Names(); len(got) != 3 || got[0] != "LocusLink" {
		t.Errorf("Names = %v", got)
	}
	if r.Get("GO") != gw {
		t.Error("Get failed")
	}
	if r.Get("ProtDB") != nil {
		t.Error("unregistered wrapper returned")
	}
	schemas, err := r.Schemas()
	if err != nil {
		t.Fatal(err)
	}
	if len(schemas) != 3 {
		t.Fatalf("%d schemas", len(schemas))
	}
	// Plug in the 4th source at runtime (E11's core move).
	if err := r.Add(pw); err != nil {
		t.Fatal(err)
	}
	if len(r.All()) != 4 {
		t.Error("ProtDB not added")
	}
	if !r.Remove("ProtDB") || r.Remove("ProtDB") {
		t.Error("Remove behaviour wrong")
	}
}

func TestFragmentTextReproducesFigure3Shape(t *testing.T) {
	c := corpus()
	w, _, _, _ := allWrappers(t, c)
	text, err := FragmentText(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3 lines: label &oid type value, with the six famous labels.
	for _, label := range []string{"LocusLink &", "LocusID &", "Organism &", "Symbol &", "Position &"} {
		if !strings.Contains(text, label) {
			t.Errorf("fragment missing %q:\n%s", label, text)
		}
	}
	// Must be machine-readable: decode it back.
	if _, err := oem.DecodeText(strings.NewReader(text)); err != nil {
		t.Errorf("fragment not round-trippable: %v", err)
	}
	if _, err := FragmentText(w, 1<<20); err == nil {
		t.Error("out-of-range fragment accepted")
	}
}

func TestProtModelShape(t *testing.T) {
	c := corpus()
	_, _, _, w := allWrappers(t, c)
	g, err := w.Model()
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root("ProtDB")
	prots := g.Children(root, "Protein")
	if len(prots) == 0 {
		t.Fatal("no proteins")
	}
	p0 := prots[0]
	for _, label := range []string{"AC", "GN", "OS", "DE"} {
		if g.StringUnder(p0, label) == "" {
			t.Errorf("%s missing", label)
		}
	}
}

// countingWrapper counts Model() calls so the schema cache's effect is
// observable.
type countingWrapper struct {
	Wrapper
	modelCalls int
}

func (c *countingWrapper) Model() (*oem.Graph, error) {
	c.modelCalls++
	return c.Wrapper.Model()
}

// TestSchemasCachedPerVersion: repeated Schemas() calls must not re-infer
// (or even re-fetch the model) until the wrapper's version moves.
func TestSchemasCachedPerVersion(t *testing.T) {
	c := datagen.Generate(datagen.Config{Seed: 7, Genes: 30, GoTerms: 20, Diseases: 10})
	ll, err := locuslink.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	cw := &countingWrapper{Wrapper: NewLocusLink(ll)}
	reg := NewRegistry()
	if err := reg.Add(cw); err != nil {
		t.Fatal(err)
	}
	first, err := reg.Schemas()
	if err != nil {
		t.Fatal(err)
	}
	if cw.modelCalls != 1 {
		t.Fatalf("first Schemas: %d model fetches, want 1", cw.modelCalls)
	}
	for i := 0; i < 5; i++ {
		again, err := reg.Schemas()
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != 1 || again[0].Source != first[0].Source || len(again[0].Labels) != len(first[0].Labels) {
			t.Fatal("cached schema differs from the inferred one")
		}
	}
	if cw.modelCalls != 1 {
		t.Fatalf("warm Schemas re-fetched the model: %d calls, want 1", cw.modelCalls)
	}
	// A refresh bumps the version; the next Schemas must re-infer.
	cw.Refresh()
	if _, err := reg.Schemas(); err != nil {
		t.Fatal(err)
	}
	if cw.modelCalls != 2 {
		t.Fatalf("post-refresh Schemas served stale cache: %d model calls, want 2", cw.modelCalls)
	}
	// Removing the source drops its cache entry.
	if !reg.Remove(cw.Name()) {
		t.Fatal("Remove failed")
	}
	reg.schemaMu.Lock()
	_, still := reg.schemas[cw.Name()]
	reg.schemaMu.Unlock()
	if still {
		t.Error("removed wrapper's schema still cached")
	}
}
