package oem

import (
	"strings"
	"testing"
)

// buildLocusLinkFragment reproduces the paper's Figure 2/3 structure: a
// LocusLink complex object with six references including a nested Links
// complex object.
func buildLocusLinkFragment(t testing.TB) (*Graph, OID) {
	g := NewGraph()
	locusID := g.NewInt(2354)
	organism := g.NewString("Homo sapiens")
	symbol := g.NewString("FOSB")
	desc := g.NewString("FBJ murine osteosarcoma viral oncogene homolog B")
	pos := g.NewString("19q13.32")
	goLink := g.NewURL("http://www.geneontology.org/GO:0003700")
	omimLink := g.NewURL("http://www.ncbi.nlm.nih.gov/omim/164772")
	links := g.NewComplex(
		Ref{Label: "GO", Target: goLink},
		Ref{Label: "OMIM", Target: omimLink},
	)
	root := g.NewComplex(
		Ref{Label: "LocusID", Target: locusID},
		Ref{Label: "Organism", Target: organism},
		Ref{Label: "Symbol", Target: symbol},
		Ref{Label: "Description", Target: desc},
		Ref{Label: "Position", Target: pos},
		Ref{Label: "Links", Target: links},
	)
	g.SetRoot("LocusLink", root)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g, root
}

func TestAtomConstructors(t *testing.T) {
	g := NewGraph()
	cases := []struct {
		id   OID
		kind Kind
		want any
	}{
		{g.NewInt(42), KindInt, int64(42)},
		{g.NewReal(3.5), KindReal, 3.5},
		{g.NewString("abc"), KindString, "abc"},
		{g.NewBool(true), KindBool, true},
		{g.NewURL("http://x.test/"), KindURL, "http://x.test/"},
	}
	for _, c := range cases {
		o := g.Get(c.id)
		if o == nil {
			t.Fatalf("object %v missing", c.id)
		}
		if o.Kind != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.id, o.Kind, c.kind)
		}
		if got := o.Value(); got != c.want {
			t.Errorf("value of %v = %v (%T), want %v (%T)", c.id, got, got, c.want, c.want)
		}
	}
	gif := g.NewGif([]byte{1, 2, 3})
	if o := g.Get(gif); o.Kind != KindGif || len(o.Raw) != 3 {
		t.Errorf("gif atom wrong: %+v", o)
	}
}

func TestNewAtomDispatch(t *testing.T) {
	g := NewGraph()
	id, err := g.NewAtom("http://example.org/x")
	if err != nil {
		t.Fatal(err)
	}
	if g.Get(id).Kind != KindURL {
		t.Errorf("http string should become url, got %v", g.Get(id).Kind)
	}
	id, err = g.NewAtom("plain")
	if err != nil {
		t.Fatal(err)
	}
	if g.Get(id).Kind != KindString {
		t.Errorf("plain string should stay string")
	}
	if _, err := g.NewAtom(struct{}{}); err == nil {
		t.Error("NewAtom on struct should error")
	}
}

func TestOIDsSequentialAndSorted(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.NewInt(int64(i))
	}
	ids := g.OIDs()
	if len(ids) != 10 {
		t.Fatalf("len = %d", len(ids))
	}
	for i, id := range ids {
		if id != OID(i+1) {
			t.Fatalf("ids[%d] = %v, want &%d", i, id, i+1)
		}
	}
}

func TestChildrenAndLabels(t *testing.T) {
	g, root := buildLocusLinkFragment(t)
	refs := g.Get(root).Refs
	want := []string{"LocusID", "Organism", "Symbol", "Description", "Position", "Links"}
	if len(refs) != len(want) {
		t.Fatalf("refs = %v", refs)
	}
	for i := range want {
		if refs[i].Label != want[i] {
			t.Errorf("refs[%d].Label = %q, want %q", i, refs[i].Label, want[i])
		}
	}
	if got := g.StringUnder(root, "Symbol"); got != "FOSB" {
		t.Errorf("Symbol = %q", got)
	}
	if v, ok := g.IntUnder(root, "LocusID"); !ok || v != 2354 {
		t.Errorf("LocusID = %d, %v", v, ok)
	}
	links := g.Child(root, "Links")
	if links == 0 {
		t.Fatal("no Links child")
	}
	if got := len(g.Children(links, "GO")); got != 1 {
		t.Errorf("GO children = %d", got)
	}
	if g.Child(root, "Nope") != 0 {
		t.Error("missing label should give 0")
	}
}

func TestValidateCatchesDangling(t *testing.T) {
	g := NewGraph()
	g.NewComplex(Ref{Label: "X", Target: 999})
	if err := g.Validate(); err == nil {
		t.Error("expected dangling-reference error")
	}
	g2 := NewGraph()
	g2.SetRoot("r", 7)
	if err := g2.Validate(); err == nil {
		t.Error("expected missing-root error")
	}
}

func TestAddRefErrors(t *testing.T) {
	g := NewGraph()
	atom := g.NewInt(1)
	if err := g.AddRef(atom, "x", atom); err == nil {
		t.Error("AddRef on atom should fail")
	}
	if err := g.AddRef(999, "x", atom); err == nil {
		t.Error("AddRef on missing parent should fail")
	}
}

func TestRemoveRefs(t *testing.T) {
	g := NewGraph()
	a := g.NewInt(1)
	b := g.NewInt(2)
	c := g.NewComplex(
		Ref{Label: "x", Target: a},
		Ref{Label: "y", Target: b},
		Ref{Label: "x", Target: b},
	)
	if n := g.RemoveRefs(c, "x"); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if refs := g.Get(c).Refs; len(refs) != 1 || refs[0].Label != "y" {
		t.Fatalf("refs after remove: %+v", refs)
	}
	if n := g.RemoveRefs(c, "absent"); n != 0 {
		t.Errorf("removed %d from absent label", n)
	}
}

func TestImportPreservesSharingAndCycles(t *testing.T) {
	src := NewGraph()
	shared := src.NewString("shared")
	a := src.NewComplex(Ref{Label: "s", Target: shared})
	b := src.NewComplex(Ref{Label: "s", Target: shared}, Ref{Label: "a", Target: a})
	// Introduce a cycle b -> a -> b.
	if err := src.AddRef(a, "back", b); err != nil {
		t.Fatal(err)
	}
	dst := NewGraph()
	dst.NewInt(123) // offset oids so remapping is visible
	nb, err := dst.Import(src, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Validate(); err != nil {
		t.Fatalf("imported graph invalid: %v", err)
	}
	if !DeepEqual(src, b, dst, nb) {
		t.Error("imported subgraph differs from source")
	}
	// Shared atom must be copied exactly once: count string objects.
	n := 0
	for _, id := range dst.OIDs() {
		if o := dst.Get(id); o.Kind == KindString && o.Str == "shared" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("shared atom copied %d times", n)
	}
}

// TestImportSharedKeepsSharingAcrossCalls: two subgraphs imported through
// one remap share in the destination what they shared in the source; the
// same two imported separately do not, and either way each copy is
// DeepEqual to its source.
func TestImportSharedKeepsSharingAcrossCalls(t *testing.T) {
	src := NewGraph()
	term := src.NewComplex(Ref{Label: "Name", Target: src.NewString("kinase")})
	a := src.NewComplex(Ref{Label: "Term", Target: term}, Ref{Label: "N", Target: src.NewInt(1)})
	b := src.NewComplex(Ref{Label: "Term", Target: term}, Ref{Label: "N", Target: src.NewInt(2)})

	shared, remap := NewGraph(), map[OID]OID{}
	sa, err := shared.ImportShared(src, a, remap)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := shared.ImportShared(src, b, remap)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Child(sa, "Term") != shared.Child(sb, "Term") {
		t.Error("one remap, two imports: the shared Term was copied twice")
	}
	if shared.Len() != src.Len() {
		t.Errorf("shared import has %d objects, source %d", shared.Len(), src.Len())
	}
	if remap[term] != shared.Child(sa, "Term") || len(remap) != src.Len() {
		t.Errorf("remap = %v, want every source object mapped to its copy", remap)
	}

	apart := NewGraph()
	pa, _ := apart.Import(src, a)
	pb, _ := apart.Import(src, b)
	if apart.Child(pa, "Term") == apart.Child(pb, "Term") {
		t.Error("separate Imports shared structure")
	}
	for _, p := range []struct {
		g         *Graph
		got, want OID
	}{{shared, sa, a}, {shared, sb, b}, {apart, pa, a}, {apart, pb, b}} {
		if !DeepEqual(src, p.want, p.g, p.got) {
			t.Errorf("copy of %v differs from its source", p.want)
		}
	}
	// A frozen source is read without its lock.
	src.Freeze()
	if _, err := NewGraph().Import(src, a); err != nil {
		t.Fatal(err)
	}
}

func TestImportSameGraphIsIdentity(t *testing.T) {
	g, root := buildLocusLinkFragment(t)
	got, err := g.Import(g, root)
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Errorf("same-graph import returned %v, want %v", got, root)
	}
}

func TestDeepEqual(t *testing.T) {
	g1, r1 := buildLocusLinkFragment(t)
	g2, r2 := buildLocusLinkFragment(t)
	if !DeepEqual(g1, r1, g2, r2) {
		t.Error("identical fragments not DeepEqual")
	}
	// Change one atom.
	sym := g2.Child(r2, "Symbol")
	g2.Get(sym).Str = "JUNB"
	if DeepEqual(g1, r1, g2, r2) {
		t.Error("different fragments reported equal")
	}
}

func TestKindStringParseRoundTrip(t *testing.T) {
	for k := KindInt; k <= KindComplex; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Error("ParseKind should reject unknown names")
	}
	if _, err := ParseKind("invalid"); err == nil {
		t.Error("ParseKind should reject the reserved name")
	}
}

func TestOIDString(t *testing.T) {
	if OID(442).String() != "&442" {
		t.Errorf("OID(442) = %s", OID(442))
	}
}

func TestCompareCoercion(t *testing.T) {
	g := NewGraph()
	geti := func(id OID) *Object { return g.Get(id) }
	i5 := geti(g.NewInt(5))
	i7 := geti(g.NewInt(7))
	r5 := geti(g.NewReal(5.0))
	s5 := geti(g.NewString("5"))
	sx := geti(g.NewString("abc"))
	sy := geti(g.NewString("abd"))
	bt := geti(g.NewBool(true))
	bf := geti(g.NewBool(false))
	st := geti(g.NewString("TRUE"))
	u := geti(g.NewURL("http://a.test/"))
	us := geti(g.NewString("http://a.test/"))
	gif := geti(g.NewGif([]byte("x")))
	cx := geti(g.Get(g.NewComplex()).ID)

	type tc struct {
		a, b *Object
		cmp  int
		ok   bool
	}
	cases := []tc{
		{i5, i7, -1, true},
		{i7, i5, 1, true},
		{i5, r5, 0, true},   // int widens to real
		{i5, s5, 0, true},   // numeric string parses
		{i5, sx, 0, false},  // non-numeric string vs int: incomparable
		{sx, sy, -1, true},  // plain strings
		{bt, bf, 1, true},   // true > false
		{bt, st, 0, true},   // bool vs "TRUE"
		{u, us, 0, true},    // url vs identical string
		{gif, sx, 0, false}, // gif vs string incomparable
		{cx, i5, 0, false},  // complex never comparable
		{nil, i5, 0, false}, // nil guard
		{i5, nil, 0, false}, // nil guard
		{gif, gif, 0, true}, // gif vs gif via bytes
	}
	for i, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("case %d: Compare = (%d,%v), want (%d,%v)", i, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestLike(t *testing.T) {
	g := NewGraph()
	o := g.Get(g.NewString("Homo sapiens"))
	cases := []struct {
		pat  string
		want bool
	}{
		{"homo%", true},
		{"%sapiens", true},
		{"%o s%", true},
		{"homo_sapiens", true},
		{"h_mo sapiens", true},
		{"homo", false},
		{"", false},
		{"%", true},
		{"Homo sapiens", true},
		{"%SAPIENS%", true},
	}
	for _, c := range cases {
		if got := Like(o, c.pat); got != c.want {
			t.Errorf("Like(%q) = %v, want %v", c.pat, got, c.want)
		}
	}
	num := g.Get(g.NewInt(12345))
	if !Like(num, "12%") {
		t.Error("Like should coerce numeric to string")
	}
	cx := g.Get(g.NewComplex())
	if Like(cx, "%") {
		t.Error("Like on complex should be false")
	}
}

// encodeText renders the subgraph at root in Figure 3 text, failing the
// test on an encode error.
func encodeText(t *testing.T, g *Graph, label string, root OID) string {
	t.Helper()
	b, err := AppendText(nil, g, label, root)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g, root := buildLocusLinkFragment(t)
	text := encodeText(t, g, "LocusLink", root)
	if !strings.Contains(text, "LocusLink &9 complex") {
		t.Errorf("missing root line in:\n%s", text)
	}
	if !strings.Contains(text, `LocusID &1 integer 2354`) {
		t.Errorf("missing LocusID line in:\n%s", text)
	}
	g2, err := DecodeText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("decode: %v\ntext:\n%s", err, text)
	}
	r2 := g2.Root("LocusLink")
	if r2 == 0 {
		t.Fatal("decoded graph has no LocusLink root")
	}
	if !DeepEqual(g, root, g2, r2) {
		t.Errorf("round trip changed graph:\n%s", text)
	}
}

func TestEncodeSharedComplexPrintedOnce(t *testing.T) {
	g := NewGraph()
	shared := g.NewComplex(Ref{Label: "v", Target: g.NewInt(1)})
	root := g.NewComplex(
		Ref{Label: "A", Target: shared},
		Ref{Label: "B", Target: shared},
	)
	text := encodeText(t, g, "R", root)
	if n := strings.Count(text, "v &1 integer 1"); n != 1 {
		t.Errorf("shared child expanded %d times:\n%s", n, text)
	}
	g2, err := DecodeText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !DeepEqual(g, root, g2, g2.Root("R")) {
		t.Error("shared structure not preserved")
	}
	// Sharing itself must be preserved, not just values.
	r2 := g2.Get(g2.Root("R"))
	if r2.Refs[0].Target != r2.Refs[1].Target {
		t.Error("decoded references no longer share the same oid")
	}
}

func TestEncodeCycle(t *testing.T) {
	g := NewGraph()
	a := g.NewComplex()
	b := g.NewComplex(Ref{Label: "up", Target: a})
	if err := g.AddRef(a, "down", b); err != nil {
		t.Fatal(err)
	}
	g.SetRoot("cyc", a)
	g2, err := DecodeText(strings.NewReader(encodeText(t, g, "cyc", a)))
	if err != nil {
		t.Fatalf("cycle decode: %v", err)
	}
	if !DeepEqual(g, a, g2, g2.Root("cyc")) {
		t.Error("cycle round trip failed")
	}
}

func TestDecodeQuotedAndOddLabels(t *testing.T) {
	g := NewGraph()
	v := g.NewString("x")
	root := g.NewComplex(Ref{Label: "has space", Target: v})
	text := encodeText(t, g, "R", root)
	if !strings.Contains(text, `"has space"`) {
		t.Fatalf("label not quoted:\n%s", text)
	}
	g2, err := DecodeText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !DeepEqual(g, root, g2, g2.Root("R")) {
		t.Error("quoted label round trip failed")
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"X &0 integer 5",                       // oid 0 reserved
		"X &1 wibble 5",                        // unknown kind
		"X &1 integer notanumber",              // bad int
		"X &1 complex 5",                       // complex with value
		"  X &1 integer 5",                     // indent without parent
		"X &1 integer 5\n      Y &2 integer 6", // indentation jump (root is atomic anyway)
		"X 1 integer 5",                        // missing &
		"X &1 real zz",                         // bad real
		"X &1 boolean maybe",                   // bad bool
		`X &1 string "unterminated`,            // bad string
	}
	for i, s := range bad {
		if _, err := DecodeText(strings.NewReader(s)); err == nil {
			t.Errorf("case %d (%q): expected error", i, s)
		}
	}
}

func TestDecodeKindMismatchAcrossReferences(t *testing.T) {
	text := "R &1 complex\n  a &2 integer 5\nS &2 string \"x\"\n"
	if _, err := DecodeText(strings.NewReader(text)); err == nil {
		t.Error("expected kind-mismatch error")
	}
}

func TestEncodeTextFromAndTextString(t *testing.T) {
	g, root := buildLocusLinkFragment(t)
	s := TextString(g, "LocusLink", root)
	if !strings.HasPrefix(s, "LocusLink &9 complex\n") {
		t.Errorf("TextString prefix wrong:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 9 {
		t.Errorf("expected 9 lines, got %d:\n%s", len(lines), s)
	}
}

func TestSortRefs(t *testing.T) {
	g := NewGraph()
	a := g.NewInt(1)
	b := g.NewInt(2)
	c := g.NewComplex(
		Ref{Label: "z", Target: a},
		Ref{Label: "a", Target: b},
		Ref{Label: "a", Target: a},
	)
	g.SortRefs(c)
	refs := g.Get(c).Refs
	if refs[0].Label != "a" || refs[0].Target != a || refs[1].Label != "a" || refs[1].Target != b || refs[2].Label != "z" {
		t.Errorf("SortRefs order wrong: %+v", refs)
	}
	g.SortRefs(a) // no-op on atom must not panic
}

func TestGifBase64RoundTrip(t *testing.T) {
	g := NewGraph()
	payload := []byte{0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x00, 0xFF}
	gif := g.NewGif(payload)
	root := g.NewComplex(Ref{Label: "img", Target: gif})
	g2, err := DecodeText(strings.NewReader(encodeText(t, g, "R", root)))
	if err != nil {
		t.Fatal(err)
	}
	if !DeepEqual(g, root, g2, g2.Root("R")) {
		t.Error("gif round trip failed")
	}
}

// targetsFolded reads id's targets under a folded label the way lorel's
// path step does: through the label index when id has an entry, else by
// scanning its refs. Like plan evaluation, it first ensures the index.
func targetsFolded(g *Graph, id OID, folded string) []OID {
	g.EnsureLabelIndex()
	if ix, ok := g.LabelIndex(); ok {
		if ts, indexed := ix.Targets(id, folded); indexed {
			return ts
		}
	}
	var out []OID
	if o := g.Get(id); o != nil {
		for _, r := range o.Refs {
			if strings.EqualFold(r.Label, folded) {
				out = append(out, r.Target)
			}
		}
	}
	return out
}

// TestTargetsFolded: the label index answers folded lookups in insertion
// order and tracks every kind of mutation.
func TestTargetsFolded(t *testing.T) {
	g := NewGraph()
	a := g.NewComplex()
	for i := 0; i < labelIndexMinRefs; i++ { // wide enough to be indexed, not scanned
		if err := g.AddRef(a, "Pad", g.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	x, y := g.NewString("x"), g.NewString("y")
	if err := g.AddRef(a, "Symbol", x); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRef(a, "SYMBOL", y); err != nil {
		t.Fatal(err)
	}
	key := FoldLabel("sYmBoL")
	if key != FoldLabel("SYMBOL") || key != FoldLabel(key) {
		t.Fatalf("FoldLabel not canonical/idempotent: %q", key)
	}
	if got := targetsFolded(g, a, key); len(got) != 2 || got[0] != x || got[1] != y {
		t.Fatalf("targetsFolded(%q) = %v, want [%v %v]", key, got, x, y)
	}
	// The key space is canonical-folded: a non-canonical key finds nothing.
	if got := targetsFolded(g, a, "symbol"); got != nil {
		t.Fatalf("non-canonical key matched: %v", got)
	}
	// AddRef after the index was built must be visible.
	z := g.NewString("z")
	if err := g.AddRef(a, "symBOL", z); err != nil {
		t.Fatal(err)
	}
	if got := targetsFolded(g, a, key); len(got) != 3 || got[2] != z {
		t.Fatalf("index stale after AddRef: %v", got)
	}
	// RemoveRefs (exact-label) must be visible too.
	if n := g.RemoveRefs(a, "SYMBOL"); n != 1 {
		t.Fatalf("RemoveRefs removed %d, want 1", n)
	}
	if got := targetsFolded(g, a, key); len(got) != 2 || got[0] != x || got[1] != z {
		t.Fatalf("index stale after RemoveRefs: %v", got)
	}
	// Atoms and absent objects index to nothing.
	if got := targetsFolded(g, x, key); got != nil {
		t.Fatalf("atom had label targets: %v", got)
	}
	if got := targetsFolded(g, OID(9999), key); got != nil {
		t.Fatalf("missing object had label targets: %v", got)
	}
	// FoldLabel must agree with strings.EqualFold even where ToLower does
	// not: Greek final sigma folds into the same class as Σ/σ.
	if FoldLabel("Οδός") != FoldLabel("ΟΔΌΣ") {
		t.Fatalf("FoldLabel(Οδός)=%q != FoldLabel(ΟΔΌΣ)=%q", FoldLabel("Οδός"), FoldLabel("ΟΔΌΣ"))
	}
}

// TestTargetsFoldedAfterSortRefs: SortRefs reorders refs, so the index must
// be rebuilt — target order follows ref order.
func TestTargetsFoldedAfterSortRefs(t *testing.T) {
	g := NewGraph()
	a := g.NewComplex()
	t1, t2 := g.NewString("1"), g.NewString("2")
	_ = g.AddRef(a, "b", t1) // label "b" sorts after "A"
	_ = g.AddRef(a, "A", t2)
	if got := targetsFolded(g, a, FoldLabel("b")); len(got) != 1 || got[0] != t1 {
		t.Fatalf("pre-sort: %v", got)
	}
	g.SortRefs(a)
	refs := g.Get(a).Refs
	if refs[0].Label != "A" || refs[1].Label != "b" {
		t.Fatalf("SortRefs order: %+v", refs)
	}
	if got := targetsFolded(g, a, FoldLabel("a")); len(got) != 1 || got[0] != t2 {
		t.Fatalf("post-sort index stale: %v", got)
	}
}

func TestRootMatchFoldsUnicode(t *testing.T) {
	g := NewGraph()
	r := g.NewComplex()
	g.SetRoot("Βάση-Ω", r)
	if got := g.RootMatch("ΒΆΣΗ-Ω"); got != r {
		t.Fatalf("RootMatch(ΒΆΣΗ-Ω) = %v, want %v", got, r)
	}
	if got := g.RootMatch("nope"); got != 0 {
		t.Fatalf("RootMatch(nope) = %v, want 0", got)
	}
}
