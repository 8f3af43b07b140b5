package oem

import "testing"

// TestImportMasked: a masked import leaves out — at every depth — the
// references under a hidden label (matched like path steps, case folded) and
// the references to a hidden object, follows neither, and with a nil mask is
// ImportShared.
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

	mask := NewMask([]string{"Protein"}, nil, map[OID]struct{}{won: {}})
	dst, remap := NewGraph(), map[OID]OID{}
	got, err := dst.ImportMasked(src, root, remap, mask)
	if err != nil {
		t.Fatal(err)
	}
	want := NewGraph()
	wantRoot := want.NewComplex(Ref{Label: "Gene", Target: want.NewComplex(
		Ref{Label: "Symbol", Target: want.NewString("FOSB")})})
	if !DeepEqual(dst, got, want, wantRoot) {
		t.Errorf("masked import:\n%s", TextString(dst, "r", got))
	}
	if _, copied := remap[protein]; copied || dst.Len() != 3 {
		t.Errorf("masked import copied %d objects (protein copied: %v), want 3 and the hidden subtree never visited", dst.Len(), copied)
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
	all, err := plain.ImportMasked(src, root, map[OID]OID{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !DeepEqual(plain, all, src, root) || plain.Len() != src.Len() {
		t.Error("ImportMasked under a nil mask is not ImportShared")
	}
}
