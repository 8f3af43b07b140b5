package fused

import (
	"bytes"
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/oem"
)

// referenceAnswer is answer import as lorel did it before oem.ImportRefs:
// one ImportMasked per selected object through a remap shared across the
// answer, an Origin entry for each selected object its own import copied,
// and one AddRef per selection.
func referenceAnswer(src *oem.Graph, sel []oem.Ref, mask *oem.Mask) (g *oem.Graph, answer oem.OID, origin map[oem.OID]oem.OID, imported int, err error) {
	g = oem.NewGraph()
	answer = g.NewComplex()
	g.SetRoot("answer", answer)
	origin = map[oem.OID]oem.OID{}
	remap := map[oem.OID]oem.OID{}
	for _, e := range sel {
		dst, ok := remap[e.Target]
		if !ok {
			if dst, err = g.ImportMasked(src, e.Target, remap, mask); err != nil {
				return nil, 0, nil, 0, err
			}
			origin[dst] = e.Target
		}
		if err := g.AddRef(answer, e.Label, dst); err != nil {
			return nil, 0, nil, 0, err
		}
	}
	return g, answer, origin, len(remap), nil
}

var (
	fuzzWorldOnce sync.Once
	fuzzWorld     *World
)

// smallWorld is a 30-gene four-source world, built once per process.
func smallWorld(t testing.TB) *World {
	fuzzWorldOnce.Do(func() {
		c := datagen.Generate(datagen.Config{Seed: 7, Genes: 30, GoTerms: 20, Diseases: 20,
			ConflictRate: 0.3, MissingRate: 0.2})
		fuzzWorld = newFederation(t, c).build(t)
	})
	return fuzzWorld
}

// FuzzAnswerImport: ImportRefs, the bulk answer walker, builds the answer
// the per-root ImportMasked loop builds — byte-equal Figure 3 text, the
// same number of objects copied and the same Origin — for any selection
// (labels, repeats, objects shared between selected subtrees, the root
// itself) under any mask: none, one MaskFor gives for a set of hidden
// concepts, or arbitrary hidden labels and objects.
func FuzzAnswerImport(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 7, 9, 7, 9, 200, 3})
	f.Add([]byte{2, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 5, 17, 33, 65, 129, 5, 17})
	f.Add([]byte{4, 255, 254, 1, 128, 64, 32, 16, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := smallWorld(t)
		g := w.Graph()
		if len(data) == 0 {
			return
		}
		ids := g.OIDs()
		labels := []string{"G", "Gene", "x"}
		var mask *oem.Mask
		switch data[0] % 5 {
		case 1, 2, 3:
			// The masks the mediator builds: hide one link concept, or two.
			hidden := [][]string{{"Protein"}, {"Disease"}, {"Annotation", "Protein"}}[data[0]%5-1]
			var decline string
			mask, decline = w.MaskFor(hidden, func(c string) bool { return !slices.Contains(hidden, c) })
			if mask == nil {
				t.Skip(decline)
			}
		case 4:
			hide := map[oem.OID]struct{}{}
			for _, b := range data[1:] {
				hide[ids[int(b)*len(ids)/256]] = struct{}{}
			}
			mask = oem.NewMask([]string{"Symbol", "Annotation"}, hide)
		}
		var sel []oem.Ref
		for i, b := range data[1:] {
			// Spread the byte over the whole oid range; b == 0 selects the
			// fused root, whose subtree is the whole world.
			id := g.Root("ANNODA-GML")
			if b != 0 {
				id = ids[(int(b)*len(ids)/256+i*131)%len(ids)]
			}
			sel = append(sel, oem.Ref{Label: labels[int(b)%len(labels)], Target: id})
		}

		want, wantAnswer, wantOrigin, wantImported, err := referenceAnswer(g, sel, mask)
		if err != nil {
			t.Fatal(err)
		}
		got := oem.NewGraph()
		answer := got.NewComplex()
		got.SetRoot("answer", answer)
		origin := map[oem.OID]oem.OID{}
		imported, err := got.ImportRefs(answer, g, sel, mask, origin)
		if err != nil {
			t.Fatal(err)
		}
		gotText, err := oem.AppendText(nil, got, "answer", answer)
		if err != nil {
			t.Fatal(err)
		}
		wantText, err := oem.AppendText(nil, want, "answer", wantAnswer)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotText, wantText) {
			t.Fatalf("answer text differs from the reference (%d vs %d bytes)", len(gotText), len(wantText))
		}
		if imported != wantImported || got.Len() != want.Len() {
			t.Fatalf("copied %d objects (graph %d), reference %d (graph %d)", imported, got.Len(), wantImported, want.Len())
		}
		if !maps.Equal(origin, wantOrigin) {
			t.Fatalf("origin %v, reference %v", origin, wantOrigin)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
