package oem

import (
	"sync"
	"testing"
)

// buildSample returns a small graph: root -> a{Name "x", N 1}, b{Name "y"}.
func buildSample() (*Graph, OID) {
	g := NewGraph()
	root := g.NewComplex()
	g.SetRoot("DB", root)
	a := g.NewComplex()
	g.AddRef(a, "Name", g.NewString("x"))
	g.AddRef(a, "N", g.NewInt(1))
	b := g.NewComplex()
	g.AddRef(b, "Name", g.NewString("y"))
	g.AddRef(root, "Entry", a)
	g.AddRef(root, "Entry", b)
	return g, root
}

func TestFreezeReadsMatchUnfrozen(t *testing.T) {
	g, root := buildSample()
	before := CanonicalText(g, "DB", root)
	lenBefore := g.Len()
	g.Freeze()
	if !g.frozen.Load() {
		t.Fatal("Freeze did not mark the graph frozen")
	}
	if got := CanonicalText(g, "DB", root); got != before {
		t.Errorf("frozen CanonicalText differs:\n%s\nvs\n%s", got, before)
	}
	if g.Len() != lenBefore {
		t.Errorf("frozen Len %d != %d", g.Len(), lenBefore)
	}
	if g.Root("DB") != root || g.RootMatch("db") != root {
		t.Error("frozen root lookup broken")
	}
	if _, ok := g.LabelIndex(); !ok {
		t.Error("frozen graph has no label index")
	} else if got := targetsFolded(g, root, FoldLabel("entry")); len(got) != 2 {
		t.Errorf("frozen folded lookup (root, entry) = %v, want 2 targets", got)
	}
	g.Freeze() // idempotent
}

func TestFreezeBlocksMutation(t *testing.T) {
	g, root := buildSample()
	// The closures are defined before Freeze: each one deliberately
	// mutates the soon-to-be-frozen graph, and asserting the mustMutable
	// panic when they run is the point of this test. (The frozenmut
	// analyzer tracks lexical order, so definitions before the Freeze
	// call are its documented blind spot — appropriate here, since the
	// violation is intentional.)
	mutations := map[string]func(){
		"NewComplex":    func() { g.NewComplex() },
		"NewString":     func() { g.NewString("z") },
		"AddRef":        func() { _ = g.AddRef(root, "X", root) },
		"SetRefs":       func() { _ = g.SetRefs(root, nil) },
		"RemoveRef":     func() { g.RemoveRef(root, "Entry", 2) },
		"RemoveRefs":    func() { g.RemoveRefs(root, "Entry") },
		"RemoveSubtree": func() { g.RemoveSubtree(root) },
		"SetRoot":       func() { g.SetRoot("other", root) },
		"SortRefs":      func() { g.SortRefs(root) },
		"Import":        func() { other, o := buildSample(); _, _ = g.Import(other, o) },
		"Absorb":        func() { other, _ := buildSample(); _, _ = g.Absorb(other) },
	}
	g.Freeze()
	for name, fn := range mutations {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen graph did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFrozenConcurrentReads(t *testing.T) {
	g, root := buildSample()
	g.Freeze()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if g.Get(root) == nil {
					t.Error("lost root object")
					return
				}
				if len(g.Children(root, "Entry")) != 2 {
					t.Error("lost entries")
					return
				}
				ix, _ := g.LabelIndex()
				_, _ = ix.Targets(root, FoldLabel("entry"))
				_ = g.RootMatch("db")
			}
		}()
	}
	wg.Wait()
}

func TestCloneIsIndependentAndPreservesOIDs(t *testing.T) {
	g, root := buildSample()
	g.EnsureLabelIndex()
	g.Freeze()
	before := CanonicalText(g, "DB", root)

	c := g.Clone()
	if c.frozen.Load() {
		t.Fatal("clone of a frozen graph is frozen")
	}
	// Same oids, same content.
	for _, id := range g.OIDs() {
		if c.Get(id) == nil {
			t.Fatalf("clone lost oid %v", id)
		}
	}
	if got := CanonicalText(c, "DB", root); got != before {
		t.Errorf("clone content differs:\n%s\nvs\n%s", got, before)
	}
	// Mutating the clone must not touch the original (or its index).
	entry := c.Children(root, "Entry")[0]
	if !c.RemoveRef(root, "Entry", entry) {
		t.Fatal("RemoveRef on clone failed")
	}
	c.RemoveSubtree(entry)
	if err := c.AddRef(root, "Extra", c.NewString("new")); err != nil {
		t.Fatal(err)
	}
	if got := CanonicalText(g, "DB", root); got != before {
		t.Errorf("mutating the clone changed the original:\n%s\nvs\n%s", got, before)
	}
	if len(g.Children(root, "Entry")) != 2 {
		t.Error("original lost an Entry edge after clone mutation")
	}
	if _, ok := g.LabelIndex(); !ok || len(targetsFolded(g, root, FoldLabel("entry"))) != 2 {
		t.Error("original label index corrupted by clone mutation")
	}
	// New allocations in the clone must not collide with preserved oids.
	if err := c.Validate(); err != nil {
		t.Errorf("mutated clone invalid: %v", err)
	}
}

func TestAbsorbRemapsAndConsumes(t *testing.T) {
	dst := NewGraph()
	droot := dst.NewComplex()
	dst.SetRoot("DB", droot)

	src := NewGraph()
	a := src.NewComplex()
	name := src.NewString("x")
	src.AddRef(a, "Name", name)

	offset, err := dst.Absorb(src)
	if err != nil {
		t.Fatal(err)
	}
	remapped := a + offset
	if err := dst.AddRef(droot, "Entry", remapped); err != nil {
		t.Fatal(err)
	}
	if err := dst.Validate(); err != nil {
		t.Fatalf("absorbed graph invalid: %v", err)
	}
	if got := dst.StringUnder(remapped, "Name"); got != "x" {
		t.Errorf("absorbed object Name = %q, want x", got)
	}
	if src.Len() != 0 {
		t.Errorf("source graph not consumed: %d objects left", src.Len())
	}
	// A consumed source is reusable as an empty graph.
	if id := src.NewString("fresh"); src.Get(id) == nil {
		t.Error("consumed source not reusable")
	}
	// Absorbing two shards in order yields deterministic, collision-free oids.
	s1, s2 := NewGraph(), NewGraph()
	for i := 0; i < 5; i++ {
		s1.NewInt(int64(i))
		s2.NewInt(int64(10 + i))
	}
	o1, err := dst.Absorb(s1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := dst.Absorb(s2)
	if err != nil {
		t.Fatal(err)
	}
	if o2 <= o1 {
		t.Errorf("offsets not increasing: %v then %v", o1, o2)
	}
	for i := 0; i < 5; i++ {
		if v := dst.Get(OID(i+1) + o2); v == nil || v.Int != int64(10+i) {
			t.Errorf("shard-2 object %d mis-remapped: %+v", i, v)
		}
	}
	if _, err := dst.Absorb(dst); err == nil {
		t.Error("self-absorb did not error")
	}
}

// TestFreezeUnindexed: the graph is immutable and lock-free like any frozen
// graph but holds no label index — LabelIndex says so (evaluators then scan
// refs), a folded lookup scans instead of building one under readers, and an
// index built before the freeze is released.
func TestFreezeUnindexed(t *testing.T) {
	g, root := buildSample()
	g.EnsureLabelIndex()
	before := CanonicalText(g, "DB", root)
	g.FreezeUnindexed()
	if !g.frozen.Load() {
		t.Fatal("FreezeUnindexed did not mark the graph frozen")
	}
	if _, ok := g.LabelIndex(); ok {
		t.Error("an unindexed frozen graph reports a label index")
	}
	if got := targetsFolded(g, root, FoldLabel("entry")); len(got) != 2 {
		t.Errorf("folded lookup (root, entry) = %v, want 2 targets from the scan", got)
	}
	if _, ok := g.LabelIndex(); ok {
		t.Error("a folded lookup built an index on a frozen graph")
	}
	if got := CanonicalText(g, "DB", root); got != before {
		t.Errorf("frozen CanonicalText differs:\n%s\nvs\n%s", got, before)
	}
	g.EnsureLabelIndex() // no-op, never a build under lock-free readers
	g.Freeze()           // already frozen: stays unindexed
	if _, ok := g.LabelIndex(); ok {
		t.Error("Freeze after FreezeUnindexed built an index")
	}
	defer func() {
		if recover() == nil {
			t.Error("mutating an unindexed frozen graph did not panic")
		}
	}()
	//lint:ignore frozenmut asserting the runtime panic is the point
	g.NewString("late")
}
