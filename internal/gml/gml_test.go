package gml

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/lorel"
	"repro/internal/match"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/sources/protdb"
	"repro/internal/wrapper"
)

func corpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 77, Genes: 40, GoTerms: 30, Diseases: 20,
		ConflictRate: 0.3, MissingRate: 0.15,
	})
}

func registry(t testing.TB, c *datagen.Corpus) *wrapper.Registry {
	t.Helper()
	reg := wrapper.NewRegistry()
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
	for _, w := range []wrapper.Wrapper{wrapper.NewLocusLink(ll), wrapper.NewGeneOntology(gos), wrapper.NewOMIM(om)} {
		if err := reg.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestTransforms(t *testing.T) {
	cases := []struct {
		tr   Transform
		in   any
		want any
		ok   bool
	}{
		{TIdentity, "x", "x", true},
		{TUpper, "fosb", "FOSB", true},
		{TUpper, int64(3), int64(3), true},
		{TIntParse, "42", int64(42), true},
		{TIntParse, int64(7), int64(7), true},
		{TIntParse, "xx", nil, false},
		{TOrganism, "human", "Homo sapiens", true},
		{TOrganism, "H. sapiens", "Homo sapiens", true},
		{TOrganism, "Homo sapiens (Human)", "Homo sapiens", true},
		{TOrganism, "Klingon", "Klingon", true},
		{TXrefNumber, "LocusLink; 1234", int64(1234), true},
		{TXrefNumber, "nonumber", nil, false},
		{TStripChr, "chr19q13.32", "19q13.32", true},
		{TStripChr, "19q13.32", "19q13.32", true},
		{TTrimParen, "Homo sapiens (Human)", "Homo sapiens", true},
		{StripPrefix("LL"), "LL1234", int64(1234), true},
		{StripPrefix("LL"), "1234", int64(1234), true}, // no prefix: parses anyway
		{Transform("bogus"), "x", nil, false},
	}
	for i, c := range cases {
		got, err := Apply(c.tr, c.in)
		if (err == nil) != c.ok {
			t.Errorf("case %d (%s): err = %v", i, c.tr, err)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("case %d (%s): got %v (%T), want %v (%T)", i, c.tr, got, got, c.want, c.want)
		}
	}
}

func TestInferTransform(t *testing.T) {
	cases := []struct {
		label   string
		isInt   bool
		samples []string
		want    Transform
	}{
		{"Organism", false, []string{"human"}, TOrganism},
		{"Position", false, []string{"chr19q13"}, TStripChr},
		{"Position", false, []string{"19q13"}, TIdentity},
		{"GeneID", true, []string{"1234", "99"}, TIntParse},
		{"GeneID", true, []string{"LL1234", "LL99"}, StripPrefix("LL")},
		{"GeneID", true, []string{"LocusLink; 12"}, TXrefNumber},
		{"Symbol", false, []string{"FOSB"}, TIdentity},
		{"GeneID", true, nil, TIntParse},
	}
	for i, c := range cases {
		if got := InferTransform(c.label, c.isInt, c.samples); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

func TestCanonicalSymbol(t *testing.T) {
	cases := map[string]string{
		"fosb":    "FOSB",
		"FOSB-1":  "FOSB",
		"  tp53 ": "TP53",
		"A-B":     "A-B", // non-numeric suffix kept
	}
	for in, want := range cases {
		if got := CanonicalSymbol(in); got != want {
			t.Errorf("CanonicalSymbol(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBuildMapsSourcesToRightConcepts(t *testing.T) {
	c := corpus()
	reg := registry(t, c)
	gl, err := Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"LocusLink": "Gene", "GO": "Annotation", "OMIM": "Disease"}
	for src, concept := range want {
		m := gl.MappingFor(src)
		if m == nil {
			t.Fatalf("no mapping for %s", src)
		}
		if m.Concept != concept {
			t.Errorf("%s mapped to %s, want %s\n%s", src, m.Concept, concept, gl.Describe())
		}
	}
	// Key rules exist with the expected locals and transforms.
	ll := gl.MappingFor("LocusLink")
	if r := ruleFor(ll, "GeneID"); r == nil || r.Local != "LocusID" {
		t.Errorf("LocusLink GeneID rule = %+v", r)
	}
	if r := ruleFor(ll, "Symbol"); r == nil || r.Local != "Symbol" {
		t.Errorf("LocusLink Symbol rule = %+v", r)
	}
	om := gl.MappingFor("OMIM")
	if r := ruleFor(om, "GeneID"); r == nil || r.Local != "Locus" || r.Transform != StripPrefix("LL") {
		t.Errorf("OMIM GeneID rule = %+v\n%s", r, gl.Describe())
	}
	if r := ruleFor(om, "Position"); r == nil || r.Local != "CytoPosition" || r.Transform != TStripChr {
		t.Errorf("OMIM Position rule = %+v", r)
	}
	gow := gl.MappingFor("GO")
	if r := ruleFor(gow, "Organism"); r == nil || r.Transform != TOrganism {
		t.Errorf("GO Organism rule = %+v", r)
	}
}

func TestPlugInProtDBAndUnplug(t *testing.T) {
	c := corpus()
	reg := registry(t, c)
	gl, err := Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := protdb.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	pw := wrapper.NewProtDB(pd)
	if err := reg.Add(pw); err != nil {
		t.Fatal(err)
	}
	m, err := gl.PlugIn(pw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Concept != "Protein" {
		t.Fatalf("ProtDB mapped to %s, want Protein\n%s", m.Concept, m.Match.String())
	}
	checks := map[string]string{
		"Accession": "AC", "Symbol": "GN", "Organism": "OS", "Description": "DE", "GeneID": "DR",
	}
	for global, local := range checks {
		r := ruleFor(m, global)
		if r == nil || r.Local != local {
			t.Errorf("rule %s = %+v, want local %s\n%s", global, r, local, gl.Describe())
		}
	}
	if r := ruleFor(m, "GeneID"); r != nil && r.Transform != TXrefNumber {
		t.Errorf("GeneID transform = %s, want xref_number", r.Transform)
	}
	// Duplicate plug-in rejected; unplug works.
	if _, err := gl.PlugIn(pw); err == nil {
		t.Error("duplicate plug-in accepted")
	}
	if !gl.Unplug("ProtDB") || gl.Unplug("ProtDB") {
		t.Error("unplug behaviour wrong")
	}
}

func TestTranslateEntityAppliesTransforms(t *testing.T) {
	c := corpus()
	reg := registry(t, c)
	gl, _ := Build(reg, match.Options{})
	m := gl.MappingFor("OMIM")
	w := reg.Get("OMIM")
	src, _ := w.Model()
	root := src.Root("OMIM")
	// Find an entry with loci.
	for _, e := range src.Children(root, "Entry") {
		if len(src.Children(e, "Locus")) == 0 {
			continue
		}
		dst := oem.NewGraph()
		te, err := TranslateEntity(dst, src, e, m)
		if err != nil {
			t.Fatal(err)
		}
		// GeneID must be an integer (transform stripped the LL prefix).
		ids := dst.Children(te, "GeneID")
		if len(ids) == 0 {
			t.Fatal("no GeneID after translation")
		}
		if dst.Get(ids[0]).Kind.String() != "integer" {
			t.Errorf("GeneID kind = %v", dst.Get(ids[0]).Kind)
		}
		// MimNumber mapped from MimNumber.
		if _, ok := dst.IntUnder(te, "MimNumber"); !ok {
			t.Error("MimNumber missing")
		}
		return
	}
	t.Skip("no OMIM entry with loci")
}

func TestMaterializeAndPaperQuery(t *testing.T) {
	c := corpus()
	reg := registry(t, c)
	gl, _ := Build(reg, match.Options{})
	g, err := gl.Materialize(reg)
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root("ANNODA-GML")
	if root == 0 {
		t.Fatal("no ANNODA-GML root")
	}
	sources := g.Children(root, "Source")
	if len(sources) != 3 {
		t.Fatalf("%d sources", len(sources))
	}
	// The paper's §4.1 query against the materialized GML.
	q := lorel.MustParse(`select X from ANNODA-GML.Source X where X.Name = "LocusLink"`)
	r, err := lorel.Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	xs := r.Graph.Children(r.Answer, "X")
	if len(xs) != 1 {
		t.Fatalf("%d answers", len(xs))
	}
	for _, label := range []string{"SourceID", "Name", "Content", "Structure"} {
		if r.Graph.Child(xs[0], label) == 0 {
			t.Errorf("answer missing %s", label)
		}
	}
	// Content holds translated Gene entities with global labels.
	content := g.Child(sources[0], "Content")
	genes := g.Children(content, "Gene")
	if len(genes) != len(c.Genes) {
		t.Fatalf("%d genes in content", len(genes))
	}
	if g.StringUnder(genes[0], "Symbol") == "" {
		t.Error("translated gene lacks Symbol")
	}
	if _, ok := g.IntUnder(genes[0], "GeneID"); !ok {
		t.Error("translated gene lacks integer GeneID")
	}
	// Structure is the machine-readable mapping description.
	structure := g.Child(sources[0], "Structure")
	labels := g.Children(structure, "Label")
	if len(labels) == 0 {
		t.Fatal("empty Structure")
	}
	if g.StringUnder(labels[0], "MapsTo") == "" {
		t.Error("Structure Label lacks MapsTo")
	}
}

func TestDescribeOutput(t *testing.T) {
	c := corpus()
	reg := registry(t, c)
	gl, _ := Build(reg, match.Options{})
	d := gl.Describe()
	for _, want := range []string{"LocusLink", "concept Gene", "GeneID", "strip_prefix:LL"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe missing %q:\n%s", want, d)
		}
	}
}

// ruleFor returns m's rule producing the global label, or nil.
func ruleFor(m *SourceMapping, global string) *Rule {
	for i := range m.Rules {
		if m.Rules[i].Global == global {
			return &m.Rules[i]
		}
	}
	return nil
}
