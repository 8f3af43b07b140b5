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

// refMask is the map-backed mask oem.Mask was before its hidden objects
// became a bitset: folded hidden labels, and one set of hidden oids per
// hidden concept. It is the reference the fuzzer holds the bitset mask to.
type refMask struct {
	labels  []string
	objects []map[oem.OID]struct{}
}

// atomSet lists a provenance bitset's members as a reference set.
func atomSet(b oem.Bitset) map[oem.OID]struct{} {
	set := map[oem.OID]struct{}{}
	for i := range 64 * len(b) {
		if b.Has(i) {
			set[oem.OID(i)] = struct{}{}
		}
	}
	return set
}

func (m *refMask) hides(r oem.Ref) bool {
	if m == nil {
		return false
	}
	for _, l := range m.labels {
		if oem.FoldLabel(r.Label) == l {
			return true
		}
	}
	for _, set := range m.objects {
		if _, ok := set[r.Target]; ok {
			return true
		}
	}
	return false
}

// referenceAnswer is answer import as lorel did it before oem.ImportRefs:
// one masked import per selected object through a remap shared across the
// answer, an Origin entry for each selected object its own import copied,
// and one AddRef per selection. The masked import is written out here over
// the exported graph API, leaving out what the reference mask hides.
func referenceAnswer(src *oem.Graph, sel []oem.Ref, mask *refMask) (g *oem.Graph, answer oem.OID, origin map[oem.OID]oem.OID, imported int, err error) {
	g = oem.NewGraph()
	answer = g.NewComplex()
	g.SetRoot("answer", answer)
	origin = map[oem.OID]oem.OID{}
	remap := map[oem.OID]oem.OID{}
	var walk func(id oem.OID) (oem.OID, error)
	walk = func(id oem.OID) (oem.OID, error) {
		if to, ok := remap[id]; ok {
			return to, nil
		}
		so := src.Get(id)
		var to oem.OID
		switch so.Kind {
		case oem.KindInt:
			to = g.NewInt(so.Int)
		case oem.KindReal:
			to = g.NewReal(so.Real)
		case oem.KindString:
			to = g.NewString(so.Str)
		case oem.KindURL:
			to = g.NewURL(so.Str)
		case oem.KindBool:
			to = g.NewBool(so.Bool)
		case oem.KindGif:
			to = g.NewGif(so.Raw)
		default:
			to = g.NewComplex()
		}
		remap[id] = to
		if so.Kind != oem.KindComplex {
			return to, nil
		}
		var refs []oem.Ref
		for _, r := range so.Refs {
			if mask.hides(r) {
				continue
			}
			t, err := walk(r.Target)
			if err != nil {
				return 0, err
			}
			refs = append(refs, oem.Ref{Label: r.Label, Target: t})
		}
		return to, g.SetRefs(to, refs)
	}
	for _, e := range sel {
		dst, ok := remap[e.Target]
		if !ok {
			if dst, err = walk(e.Target); err != nil {
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
// the per-root masked import loop builds — byte-equal Figure 3 text, the
// same number of objects copied and the same Origin — for any selection
// (labels, repeats, objects shared between selected subtrees, the root
// itself) under any mask: none, one MaskFor gives for a set of hidden
// concepts, or random hidden labels and objects. The reference loop reads
// each mask as the map-backed refMask, so the bitset mask is held to the
// sets it was made from.
func FuzzAnswerImport(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 7, 9, 7, 9, 200, 3})
	f.Add([]byte{2, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 5, 17, 33, 65, 129, 5, 17})
	f.Add([]byte{4, 255, 254, 1, 128, 64, 32, 16, 8})
	f.Add([]byte{5, 3, 9, 27, 81, 243, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := smallWorld(t)
		g := w.Graph()
		if len(data) == 0 {
			return
		}
		ids := g.OIDs()
		labels := []string{"G", "Gene", "x"}
		var mask *oem.Mask
		var ref *refMask
		switch data[0] % 6 {
		case 1, 2, 3:
			// The masks the mediator builds: hide one link concept, or two.
			hidden := [][]string{{"Protein"}, {"Disease"}, {"Annotation", "Protein"}}[data[0]%6-1]
			var decline string
			mask, decline = w.MaskFor(hidden, func(c string) bool { return !slices.Contains(hidden, c) })
			if mask == nil {
				t.Skip(decline)
			}
			if again, _ := w.MaskFor(hidden, func(c string) bool { return !slices.Contains(hidden, c) }); again != mask {
				t.Fatal("MaskFor built a second mask for one hidden set")
			}
			ref = &refMask{}
			for _, c := range hidden {
				ref.labels = append(ref.labels, oem.FoldLabel(c))
				ref.objects = append(ref.objects, atomSet(w.prov.atoms[c]))
			}
		case 4, 5:
			// Random hidden labels, drawn from the graph's own and one
			// absent, and random hidden objects split over two sets, as
			// the hidden concepts' atoms are.
			pool := []string{"Symbol", "ANNOTATION", "links", "Term", "Description", "nope"}
			ref = &refMask{objects: []map[oem.OID]struct{}{{}, {}}}
			var hidden []string
			for i, l := range pool {
				if data[0]>>(i+3)&1 != 0 || (data[0]%6 == 4 && i < 2) {
					hidden = append(hidden, l)
					ref.labels = append(ref.labels, oem.FoldLabel(l))
				}
			}
			var sets [2]oem.Bitset
			for i, b := range data[1:] {
				id := ids[(int(b)*len(ids)/256+i*977)%len(ids)]
				ref.objects[i%2][id] = struct{}{}
				sets[i%2].Add(int(id))
			}
			mask = oem.NewMask(hidden, oem.Union(sets[0], sets[1]))
		}
		for _, id := range ids {
			for _, r := range g.Get(id).Refs {
				if mask.Hides(r) != ref.hides(r) {
					t.Fatalf("mask hides %v: %v, reference %v", r, mask.Hides(r), ref.hides(r))
				}
			}
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

		want, wantAnswer, wantOrigin, wantImported, err := referenceAnswer(g, sel, ref)
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
