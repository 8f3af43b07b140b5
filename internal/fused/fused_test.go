package fused

import (
	"bytes"
	"fmt"
	"go/build"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/gml"
	"repro/internal/match"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/sources/protdb"
	"repro/internal/wrapper"
)

// federation is the four-source world annoda-server serves, translated
// from one corpus: every population hashed, so Build can record it.
type federation struct {
	cfg      Config
	pops     []*Population
	models   map[string]*oem.Graph
	mappings map[string]*gml.SourceMapping
}

func newFederation(t testing.TB, c *datagen.Corpus) *federation {
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
	reg := wrapper.NewRegistry()
	for _, w := range []wrapper.Wrapper{wrapper.NewLocusLink(ll), wrapper.NewGeneOntology(gos), wrapper.NewOMIM(om)} {
		if err := reg.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pw := wrapper.NewProtDB(pd)
	if err := reg.Add(pw); err != nil {
		t.Fatal(err)
	}
	if _, err := gl.PlugIn(pw); err != nil {
		t.Fatal(err)
	}
	f := &federation{
		cfg:      Config{Policy: PolicyPreferPrimary, Sources: reg.Names(), Workers: 1},
		models:   map[string]*oem.Graph{},
		mappings: map[string]*gml.SourceMapping{},
	}
	for _, w := range reg.All() {
		mp := gl.MappingFor(w.Name())
		src, err := w.Model()
		if err != nil {
			t.Fatal(err)
		}
		f.models[w.Name()], f.mappings[w.Name()] = src, mp
		pop := &Population{Source: w.Name(), Concept: mp.Concept, Graph: oem.NewGraph()}
		for _, e := range src.Children(src.Root(w.Name()), mp.Entity) {
			te, err := gml.TranslateEntity(pop.Graph, src, e, mp)
			if err != nil {
				t.Fatal(err)
			}
			pop.Entities = append(pop.Entities, te)
			pop.Hashes = append(pop.Hashes, delta.HashEntity(src, e))
		}
		f.pops = append(f.pops, pop)
	}
	return f
}

func (f *federation) build(t testing.TB) *World {
	t.Helper()
	w, err := Build(f.pops, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// maskVerdicts renders what MaskFor says for every way of hiding link
// concepts: the decline, or the labels and objects the mask hides.
func maskVerdicts(w *World) string {
	var sb strings.Builder
	concepts := []string{"Annotation", "Disease", "Protein"}
	for set := 1; set < 1<<len(concepts); set++ {
		var hidden []string
		for i, c := range concepts {
			if set&(1<<i) != 0 {
				hidden = append(hidden, c)
			}
		}
		needs := func(c string) bool { return !slices.Contains(hidden, c) }
		mask, decline := w.MaskFor(hidden, needs)
		fmt.Fprintf(&sb, "%v: %q", hidden, decline)
		if mask != nil {
			for _, c := range concepts {
				fmt.Fprintf(&sb, " %s=%v", c, mask.HidesLabel(oem.FoldLabel(c)))
			}
			for _, id := range w.Graph().OIDs() {
				if mask.HidesObject(id) {
					fmt.Fprintf(&sb, " %d", id)
				}
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPatchLeavesReceiverUnchanged: Patch works on a copy. The world it was
// called on encodes to the same bytes and builds the same masks after the
// patch as before, while the patched world differs.
func TestPatchLeavesReceiverUnchanged(t *testing.T) {
	c := datagen.Generate(datagen.Config{Seed: 20050405, Genes: 250, GoTerms: 80, Diseases: 100,
		ConflictRate: 0.3, MissingRate: 0.15})
	f := newFederation(t, c)
	w := f.build(t)
	encode := func(w *World) []byte {
		b, err := w.Encode(7, BuildStats{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bytesBefore, masksBefore := encode(w), maskVerdicts(w)
	if !strings.Contains(masksBefore, "Protein=true") {
		t.Fatalf("no mask hides Protein; the fixture exercises nothing:\n%s", masksBefore)
	}

	// Drop the descriptions LocusLink gives, so ProtDB's win, and rename a
	// gene, so links move.
	for i := 0; i < 40; i += 4 {
		c.Genes[i].Description = ""
	}
	c.Genes[5].Symbol += "X"
	ll, err := locuslink.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	model, err := wrapper.NewLocusLink(ll).Model()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := delta.Diff(f.models["LocusLink"], model, "LocusLink", "Locus")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Empty() {
		t.Fatal("the edit produced an empty change set")
	}
	patched, err := w.Patch(cs, f.mappings["LocusLink"])
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(encode(w), bytesBefore) {
		t.Error("Patch changed the encoding of the world it was called on")
	}
	if got := maskVerdicts(w); got != masksBefore {
		t.Errorf("Patch changed the masks of the world it was called on\nbefore:\n%s\nafter:\n%s", masksBefore, got)
	}
	if bytes.Equal(encode(patched), bytesBefore) {
		t.Error("the patched world encodes like the original; the patch did nothing")
	}
}

// TestImports pins the package's dependencies: the oem graph, the global
// model's mappings, change sets, the wire codec and the standard library.
func TestImports(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := []string{"repro/internal/oem", "repro/internal/gml", "repro/internal/delta", "repro/internal/wire"}
	for _, imp := range pkg.Imports {
		std := !strings.Contains(strings.SplitN(imp, "/", 2)[0], ".") && !strings.HasPrefix(imp, "repro/")
		if !std && !slices.Contains(allowed, imp) {
			t.Errorf("fused imports %s; it may import only %v and the standard library", imp, allowed)
		}
	}
}

// BenchmarkEpochProvenance times the provenance scan seal runs over every
// world it seals — the cost masking adds to a build, a patch and a restore
// — and reports how many atoms link-concept sources won.
func BenchmarkEpochProvenance(b *testing.B) {
	for _, genes := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("%dk", genes/1000), func(b *testing.B) {
			cfg := datagen.DefaultConfig()
			cfg.Genes = genes
			w := newFederation(b, datagen.Generate(cfg)).build(b)
			var p *provenance
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p = provenanceOf(w.st)
			}
			atoms := 0
			for _, set := range p.atoms {
				atoms += len(set)
			}
			b.ReportMetric(float64(atoms), "atoms")
			b.ReportMetric(float64(len(w.st.genes)), "genes")
		})
	}
}
