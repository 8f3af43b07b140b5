package oem

import (
	"strings"
	"testing"
)

// TestRemoveRef: exactly one matching (label, target) edge goes; siblings
// under the same label stay.
func TestRemoveRef(t *testing.T) {
	g := NewGraph()
	a, b := g.NewString("a"), g.NewString("b")
	p := g.NewComplex(
		Ref{Label: "X", Target: a},
		Ref{Label: "X", Target: b},
		Ref{Label: "Y", Target: a},
	)
	if !g.RemoveRef(p, "X", a) {
		t.Fatal("RemoveRef missed an existing edge")
	}
	if g.RemoveRef(p, "X", a) {
		t.Fatal("RemoveRef removed a second copy that does not exist")
	}
	if got := g.Children(p, "X"); len(got) != 1 || got[0] != b {
		t.Fatalf("X children = %v, want [%v]", got, b)
	}
	if got := g.Children(p, "Y"); len(got) != 1 || got[0] != a {
		t.Fatalf("Y children = %v, want [%v]", got, a)
	}
	if g.RemoveRef(a, "X", b) {
		t.Error("RemoveRef succeeded on an atomic object")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveSubtree: the private subtree goes, shared-out objects detached
// beforehand survive, and the graph stays valid.
func TestRemoveSubtree(t *testing.T) {
	g := NewGraph()
	leaf := g.NewString("leaf")
	inner := g.NewComplex(Ref{Label: "L", Target: leaf})
	entity := g.NewComplex(Ref{Label: "Inner", Target: inner})
	keeper := g.NewString("keeper")
	root := g.NewComplex(Ref{Label: "E", Target: entity}, Ref{Label: "K", Target: keeper})
	g.SetRoot("R", root)

	before := g.Len()
	if !g.RemoveRef(root, "E", entity) {
		t.Fatal("detach failed")
	}
	if n := g.RemoveSubtree(entity); n != 3 {
		t.Fatalf("RemoveSubtree removed %d objects, want 3", n)
	}
	if g.Len() != before-3 {
		t.Fatalf("graph has %d objects, want %d", g.Len(), before-3)
	}
	if g.Get(keeper) == nil {
		t.Fatal("unrelated object removed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveSubtreeCycle(t *testing.T) {
	g := NewGraph()
	a := g.NewComplex()
	b := g.NewComplex()
	if err := g.AddRef(a, "next", b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRef(b, "next", a); err != nil {
		t.Fatal(err)
	}
	if n := g.RemoveSubtree(a); n != 2 {
		t.Fatalf("cyclic RemoveSubtree removed %d, want 2", n)
	}
}

// TestLabelIndexRepairAfterMutation: a built index must observe later
// mutations (the incremental repair path), and handles taken before a
// mutation keep seeing the old world. p is wide enough to be indexed; once
// it narrows below labelIndexMinRefs its entry goes and lookups scan.
func TestLabelIndexRepairAfterMutation(t *testing.T) {
	g := NewGraph()
	c1 := g.NewString("one")
	refs := []Ref{{Label: "Val", Target: c1}}
	for len(refs) < labelIndexMinRefs {
		refs = append(refs, Ref{Label: "Pad", Target: g.NewInt(int64(len(refs)))})
	}
	p := g.NewComplex(refs...)
	g.EnsureLabelIndex()
	if got := targetsFolded(g, p, FoldLabel("Val")); len(got) != 1 || got[0] != c1 {
		t.Fatalf("indexed targets = %v", got)
	}
	oldIx, ok := g.LabelIndex()
	if !ok {
		t.Fatal("no index after EnsureLabelIndex")
	}
	// Mutate: add a second Val edge and a brand-new object.
	c2 := g.NewString("two")
	if err := g.AddRef(p, "Val", c2); err != nil {
		t.Fatal(err)
	}
	if got := targetsFolded(g, p, FoldLabel("Val")); len(got) != 2 {
		t.Fatalf("post-mutation targets = %v, want both", got)
	}
	// The pre-mutation handle is immutable: still one target.
	if got, indexed := oldIx.Targets(p, FoldLabel("Val")); len(got) != 1 || !indexed {
		t.Fatalf("old handle observed the mutation: %v (indexed %v)", got, indexed)
	}
	// Removal repairs too.
	if !g.RemoveRef(p, "Val", c1) {
		t.Fatal("RemoveRef failed")
	}
	if got := targetsFolded(g, p, FoldLabel("Val")); len(got) != 1 || got[0] != c2 {
		t.Fatalf("post-removal targets = %v, want [%v]", got, c2)
	}
	// An object narrowed below the threshold loses its entry in the repaired
	// index, and is scanned from then on.
	g.RemoveSubtree(c1)
	if n := g.RemoveRefs(p, "Pad"); n != labelIndexMinRefs-1 {
		t.Fatalf("removed %d Pad refs", n)
	}
	if ix, ok := g.LabelIndex(); !ok {
		t.Fatal("index dropped by a small mutation")
	} else if _, indexed := ix.Targets(p, "val"); indexed {
		t.Fatal("narrowed object still indexed")
	}
	if got := targetsFolded(g, p, FoldLabel("Val")); len(got) != 1 || got[0] != c2 {
		t.Fatalf("scan of the narrowed object = %v, want [%v]", got, c2)
	}
}

// TestLabelIndexBulkMutationFallsBack: a mutation burst past a quarter of
// the graph drops the index instead of patching forever; the next
// EnsureLabelIndex rebuilds it correctly.
func TestLabelIndexBulkMutationFallsBack(t *testing.T) {
	g := NewGraph()
	p := g.NewComplex()
	for i := 0; i < 8; i++ {
		if err := g.AddRef(p, "Val", g.NewString("x")); err != nil {
			t.Fatal(err)
		}
	}
	g.EnsureLabelIndex()
	// Allocate far more objects than the dirty threshold allows.
	for i := 0; i < 1000; i++ {
		g.NewString("bulk")
	}
	g.EnsureLabelIndex()
	if got := targetsFolded(g, p, FoldLabel("Val")); len(got) != 8 {
		t.Fatalf("rebuilt index lost edges: %v", got)
	}
}

// TestCanonicalTextSetSemantics: oid assignment and sibling order must not
// matter; values must.
func TestCanonicalTextSetSemantics(t *testing.T) {
	g1 := NewGraph()
	a1 := g1.NewComplex(
		Ref{Label: "A", Target: g1.NewString("x")},
		Ref{Label: "B", Target: g1.NewInt(7)},
	)
	g2 := NewGraph()
	g2.NewString("padding to shift oids")
	b2 := g2.NewInt(7)
	a2 := g2.NewComplex(
		Ref{Label: "B", Target: b2}, // reversed sibling order
		Ref{Label: "A", Target: g2.NewString("x")},
	)
	if CanonicalText(g1, "r", a1) != CanonicalText(g2, "r", a2) {
		t.Fatalf("canonical forms differ:\n%s\nvs\n%s",
			CanonicalText(g1, "r", a1), CanonicalText(g2, "r", a2))
	}
	g3 := NewGraph()
	a3 := g3.NewComplex(
		Ref{Label: "A", Target: g3.NewString("x")},
		Ref{Label: "B", Target: g3.NewInt(8)}, // different value
	)
	if CanonicalText(g1, "r", a1) == CanonicalText(g3, "r", a3) {
		t.Fatal("different values rendered identically")
	}
}

func TestCanonicalTextCycle(t *testing.T) {
	g := NewGraph()
	a := g.NewComplex()
	b := g.NewComplex()
	if err := g.AddRef(a, "next", b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRef(b, "next", a); err != nil {
		t.Fatal(err)
	}
	out := CanonicalText(g, "r", a)
	if !strings.Contains(out, "<cycle>") {
		t.Fatalf("cycle not marked:\n%s", out)
	}
}
