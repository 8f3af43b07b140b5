package oem

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestImportMasked: ImportRefs under a mask leaves out — at every depth —
// the references under a hidden label (matched like path steps, case folded)
// and the references to a hidden object, follows neither, and under a nil
// mask copies the whole subgraph.
func TestImportMasked(t *testing.T) {
	src := NewGraph()
	won := src.NewString("supplied by a protein record")
	protein := src.NewComplex(Ref{Label: "Accession", Target: src.NewString("P1")})
	inner := src.NewComplex(
		Ref{Label: "Symbol", Target: src.NewString("FOSB")},
		Ref{Label: "Description", Target: won},
		Ref{Label: "protein", Target: protein},
	)
	root := src.NewComplex(Ref{Label: "Gene", Target: inner}, Ref{Label: "Protein", Target: protein})
	src.Freeze()

	var hide Bitset
	hide.Add(int(won))
	mask := NewMask([]string{"Protein"}, hide)
	dst := NewGraph()
	answer := dst.NewComplex()
	copied, err := dst.ImportRefs(answer, src, []Ref{{Label: "r", Target: root}}, mask, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := dst.Get(answer).Refs[0].Target
	want := NewGraph()
	wantRoot := want.NewComplex(Ref{Label: "Gene", Target: want.NewComplex(
		Ref{Label: "Symbol", Target: want.NewString("FOSB")})})
	if !DeepEqual(dst, got, want, wantRoot) {
		t.Errorf("masked import:\n%s", TextString(dst, "r", got))
	}
	if copied != 3 || dst.Len() != 4 {
		t.Errorf("masked import copied %d objects (graph %d), want 3 and the hidden subtree never visited", copied, dst.Len())
	}
	if !mask.Hides(Ref{Label: "PROTEIN", Target: inner}) || mask.Hides(Ref{Label: "Proteins", Target: inner}) ||
		!mask.HidesLabel(FoldLabel("Protein")) || !mask.HidesObject(won) || mask.HidesObject(inner) {
		t.Error("Mask predicates disagree with what the import left out")
	}

	var none *Mask
	if none.Hides(Ref{Label: "Protein", Target: won}) || none.HidesLabel("protein") || none.HidesObject(won) {
		t.Error("a nil mask hides something")
	}
	plain := NewGraph()
	parent := plain.NewComplex()
	copied, err = plain.ImportRefs(parent, src, []Ref{{Label: "r", Target: root}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if all := plain.Get(parent).Refs[0].Target; !DeepEqual(plain, all, src, root) || copied != src.Len() {
		t.Error("ImportRefs under a nil mask does not copy the whole subgraph")
	}
}

// TestBitset holds the set operations to a map-backed reference over random
// sets of unequal lengths: Add, Has, Count, And, Or, AndNot, Not within a
// bound and Union.
func TestBitset(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	random := func() (Bitset, map[int]bool) {
		n := rng.IntN(300)
		b, ref := NewBitset(n), map[int]bool{}
		for range rng.IntN(n + 1) {
			i := rng.IntN(n + 1)
			b.Add(i) // may grow past n: lengths differ
			ref[i] = true
		}
		return b, ref
	}
	same := func(what string, b Bitset, ref map[int]bool) {
		t.Helper()
		var got, want []int
		for i := range 64 * len(b) {
			if b.Has(i) {
				got = append(got, i)
			}
		}
		for i := range ref {
			want = append(want, i)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) || b.Count() != len(want) {
			t.Fatalf("%s: members %v (count %d), want %v", what, got, b.Count(), want)
		}
		if b.Has(64*len(b)) || b.Has(64*len(b)+1000) {
			t.Fatalf("%s: a member past the end", what)
		}
	}
	for range 200 {
		a, ra := random()
		b, rb := random()
		same("a", a, ra)
		and, or, andNot := slices.Clone(a), slices.Clone(a), slices.Clone(a)
		and.And(b)
		or.Or(b)
		andNot.AndNot(b)
		rAnd, rOr, rAndNot := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for i := range ra {
			if rb[i] {
				rAnd[i] = true
			} else {
				rAndNot[i] = true
			}
			rOr[i] = true
		}
		for i := range rb {
			if i < 64*len(a) { // Or keeps to a's words
				rOr[i] = true
			}
		}
		same("and", and, rAnd)
		same("or", or, rOr)
		same("andnot", andNot, rAndNot)
		u, rU := Union(a, b), map[int]bool{}
		for i := range ra {
			rU[i] = true
		}
		for i := range rb {
			rU[i] = true
		}
		same("union", u, rU)
		n := 64*len(a) - rng.IntN(64)
		if n < 0 || len(NewBitset(n)) != len(a) {
			continue
		}
		not, rNot := slices.Clone(a), map[int]bool{}
		not.Not(n)
		for i := range n {
			if !ra[i] {
				rNot[i] = true
			}
		}
		same("not", not, rNot)
	}
}
