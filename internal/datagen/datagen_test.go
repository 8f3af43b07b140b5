package datagen

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if fmt.Sprintf("%+v", a.Genes) != fmt.Sprintf("%+v", b.Genes) {
		t.Error("genes differ across runs with same seed")
	}
	if fmt.Sprintf("%+v", a.Terms) != fmt.Sprintf("%+v", b.Terms) {
		t.Error("terms differ across runs with same seed")
	}
	if fmt.Sprintf("%+v", a.Diseases) != fmt.Sprintf("%+v", b.Diseases) {
		t.Error("diseases differ across runs with same seed")
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	c := Generate(cfg)
	if fmt.Sprintf("%+v", a.Genes) == fmt.Sprintf("%+v", c.Genes) {
		t.Error("different seeds produced identical genes")
	}
}

func TestSizes(t *testing.T) {
	cfg := Config{Seed: 1, Genes: 50, GoTerms: 30, Diseases: 20, ConflictRate: 0.5, MissingRate: 0.2}
	c := Generate(cfg)
	if len(c.Genes) != 50 || len(c.Terms) != 30 || len(c.Diseases) != 20 {
		t.Fatalf("sizes: %d genes, %d terms, %d diseases", len(c.Genes), len(c.Terms), len(c.Diseases))
	}
}

func TestZeroConfigGetsDefaults(t *testing.T) {
	c := Generate(Config{Seed: 5})
	if len(c.Genes) == 0 || len(c.Terms) == 0 || len(c.Diseases) == 0 {
		t.Error("zero config should fall back to default sizes")
	}
}

func TestUniqueIdentifiers(t *testing.T) {
	c := Generate(DefaultConfig())
	ids := map[int]bool{}
	syms := map[string]bool{}
	for _, g := range c.Genes {
		if ids[g.LocusID] {
			t.Fatalf("duplicate LocusID %d", g.LocusID)
		}
		ids[g.LocusID] = true
		if syms[g.Symbol] {
			t.Fatalf("duplicate symbol %s", g.Symbol)
		}
		syms[g.Symbol] = true
	}
	mims := map[int]bool{}
	for _, d := range c.Diseases {
		if mims[d.MIM] {
			t.Fatalf("duplicate MIM %d", d.MIM)
		}
		mims[d.MIM] = true
	}
	tids := map[string]bool{}
	for _, tm := range c.Terms {
		if tids[tm.ID] {
			t.Fatalf("duplicate term %s", tm.ID)
		}
		tids[tm.ID] = true
	}
}

func TestGoDAGAcyclicAndWellFormed(t *testing.T) {
	c := Generate(DefaultConfig())
	pos := map[string]int{}
	for i, tm := range c.Terms {
		pos[tm.ID] = i
	}
	for i, tm := range c.Terms {
		for _, p := range tm.Parents {
			j, ok := pos[p]
			if !ok {
				t.Fatalf("term %s has unknown parent %s", tm.ID, p)
			}
			pt := &c.Terms[j]
			if pt.Namespace != tm.Namespace {
				t.Errorf("term %s parent %s crosses namespace", tm.ID, p)
			}
			if pos[p] >= i {
				t.Errorf("term %s has non-earlier parent %s: not obviously acyclic", tm.ID, p)
			}
		}
	}
}

func TestLinksResolve(t *testing.T) {
	c := Generate(DefaultConfig())
	terms := map[string]bool{}
	for _, tm := range c.Terms {
		terms[tm.ID] = true
	}
	for _, g := range c.Genes {
		for _, tid := range g.GoTerms {
			if !terms[tid] {
				t.Fatalf("gene %s links unknown term %s", g.Symbol, tid)
			}
		}
		for _, mim := range g.Diseases {
			d := c.DiseaseByMIM(mim)
			if d == nil {
				t.Fatalf("gene %s links unknown disease %d", g.Symbol, mim)
			}
			found := false
			for _, l := range d.Loci {
				if l == g.LocusID {
					found = true
				}
			}
			if !found {
				t.Errorf("disease %d does not back-link gene %d", mim, g.LocusID)
			}
		}
	}
}

func TestConflictAndMissingRates(t *testing.T) {
	cfg := Config{Seed: 7, Genes: 4000, GoTerms: 100, Diseases: 100, ConflictRate: 0.2, MissingRate: 0.1}
	c := Generate(cfg)
	conflicts := len(c.ConflictingGenes())
	frac := float64(conflicts) / float64(len(c.Genes))
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("conflict fraction = %.3f, want ~0.2", frac)
	}
	missing := 0
	for _, g := range c.Genes {
		if g.LLMissingDesc {
			missing++
		}
	}
	mfrac := float64(missing) / float64(len(c.Genes))
	if mfrac < 0.06 || mfrac > 0.14 {
		t.Errorf("missing fraction = %.3f, want ~0.1", mfrac)
	}
	// Conflicting genes really differ between views.
	for _, id := range c.ConflictingGenes() {
		g := c.GeneByID(id)
		if g.OMIMPosition == g.Position && g.OMIMSymbol == g.Symbol {
			t.Errorf("gene %d flagged conflicting but views agree", id)
		}
	}
}

func TestFigure5bGroundTruthNonTrivial(t *testing.T) {
	c := Generate(DefaultConfig())
	got := c.GenesWithGoButNotOMIM()
	if len(got) == 0 {
		t.Fatal("no genes with GO but no OMIM: Figure 5(b) query would be empty")
	}
	if len(got) == len(c.Genes) {
		t.Fatal("every gene matches: query would be unselective")
	}
	for _, id := range got {
		g := c.GeneByID(id)
		if len(g.GoTerms) == 0 || len(g.Diseases) != 0 {
			t.Errorf("gene %d wrongly in ground truth", id)
		}
	}
}

func TestRNGBasics(t *testing.T) {
	r := NewRNG(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.Next()] = true
	}
	if len(seen) != 1000 {
		t.Errorf("collisions in first 1000 outputs: %d distinct", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloatRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		f := r.Float()
		if f < 0 || f >= 1 {
			t.Fatalf("Float out of range: %v", f)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		xs := make([]int, int(n%50)+1)
		for i := range xs {
			xs[i] = i
		}
		Shuffle(r, xs)
		seen := map[int]bool{}
		for _, x := range xs {
			if seen[x] || x < 0 || x >= len(xs) {
				return false
			}
			seen[x] = true
		}
		return len(seen) == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrganismVariantsAreLinked(t *testing.T) {
	c := Generate(DefaultConfig())
	for _, g := range c.Genes {
		found := false
		for _, o := range organisms {
			if g.Organism == o.Binomial && g.GOOrganism == o.Common {
				found = true
			}
		}
		if !found {
			t.Fatalf("gene %s organism pair (%q, %q) not a known variant pair", g.Symbol, g.Organism, g.GOOrganism)
		}
	}
}
