package oem

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// codecTestGraph builds a graph exercising every kind, shared structure,
// a cycle, unicode labels, and multiple roots.
func codecTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	i := g.NewInt(-42)
	r := g.NewReal(3.5)
	s := g.NewString("BRCA1 – breast cancer 1")
	b := g.NewBool(true)
	u := g.NewURL("http://example.org/locus/672")
	gif := g.NewGif([]byte{0x47, 0x49, 0x46, 0x00, 0xFF})
	shared := g.NewComplex(Ref{Label: "GoID", Target: s})
	locus := g.NewComplex(
		Ref{Label: "LocusID", Target: i},
		Ref{Label: "Score", Target: r},
		Ref{Label: "Active", Target: b},
		Ref{Label: "WebLink", Target: u},
		Ref{Label: "Image", Target: gif},
		Ref{Label: "Annotation", Target: shared},
		Ref{Label: "Ännotation", Target: shared}, // shared target, folded label sibling
	)
	// A cycle back to the entity.
	cyc := g.NewComplex(Ref{Label: "Back", Target: locus})
	if err := g.AddRef(locus, "Cycle", cyc); err != nil {
		t.Fatal(err)
	}
	g.SetRoot("LocusLink", locus)
	g.SetRoot("answer", cyc)
	return g
}

func encode(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	g := codecTestGraph(t)
	data := encode(t, g)
	got, err := DecodeBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// oid-preserving: identical oid sets, identical roots.
	wantIDs, gotIDs := g.OIDs(), got.OIDs()
	if len(wantIDs) != len(gotIDs) {
		t.Fatalf("object count: got %d want %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if wantIDs[i] != gotIDs[i] {
			t.Fatalf("oid %d: got %v want %v", i, gotIDs[i], wantIDs[i])
		}
	}
	for _, r := range g.roots {
		if got.Root(r.Name) != r.OID {
			t.Fatalf("root %q: got %v want %v", r.Name, got.Root(r.Name), r.OID)
		}
	}
	// Structurally identical from every root.
	for _, r := range g.roots {
		if !DeepEqual(g, r.OID, got, r.OID) {
			t.Fatalf("subgraph under root %q differs after round trip", r.Name)
		}
		if gc, wc := CanonicalText(got, r.Name, r.OID), CanonicalText(g, r.Name, r.OID); gc != wc {
			t.Fatalf("canonical text differs under root %q:\n%s\nvs\n%s", r.Name, gc, wc)
		}
	}
	// Fresh allocation on the decoded graph must not collide with existing
	// oids (next was preserved).
	nid := got.NewInt(1)
	if g.Get(nid) != nil {
		t.Fatalf("decoded graph reallocated existing oid %v", nid)
	}
}

func TestBinaryCodecDeterministic(t *testing.T) {
	g := codecTestGraph(t)
	a := encode(t, g)
	b := encode(t, g)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same graph differ")
	}
	dec, err := DecodeBinary(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	c := encode(t, dec)
	if !bytes.Equal(a, c) {
		t.Fatal("re-encoding a decoded graph does not reproduce its input")
	}
}

func TestBinaryCodecFrozenGraph(t *testing.T) {
	g := codecTestGraph(t)
	g.Freeze()
	data := encode(t, g)
	dec, err := DecodeBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if dec.frozen.Load() {
		t.Fatal("decoded graph must be mutable (freezing is the publisher's call)")
	}
	if !DeepEqual(g, g.Root("LocusLink"), dec, dec.Root("LocusLink")) {
		t.Fatal("frozen graph round trip differs")
	}
}

func TestBinaryCodecInternsLabels(t *testing.T) {
	g := NewGraph()
	var kids []OID
	for i := 0; i < 8; i++ {
		kids = append(kids, g.NewInt(int64(i)))
	}
	parentA := g.NewComplex()
	parentB := g.NewComplex()
	for _, k := range kids {
		g.AddRef(parentA, "SharedLabel", k)
		g.AddRef(parentB, "SharedLabel", k)
	}
	g.SetRoot("r", parentA)
	dec, err := DecodeBinary(bytes.NewReader(encode(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	oa, ob := dec.Get(parentA), dec.Get(parentB)
	if len(oa.Refs) != 8 || len(ob.Refs) != 8 {
		t.Fatalf("refs lost: %d, %d", len(oa.Refs), len(ob.Refs))
	}
	// Interned: every decoded ref shares one backing string per distinct
	// label — a million-edge graph allocates one string per label, not one
	// per edge.
	base := unsafe.StringData(oa.Refs[0].Label)
	for _, o := range []*Object{oa, ob} {
		for i := range o.Refs {
			if o.Refs[i].Label != "SharedLabel" {
				t.Fatalf("label %q", o.Refs[i].Label)
			}
			if unsafe.StringData(o.Refs[i].Label) != base {
				t.Fatal("decoded labels are not interned (distinct backing arrays)")
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	g := codecTestGraph(t)
	data := encode(t, g)

	cases := map[string][]byte{
		"empty":         {},
		"short magic":   data[:2],
		"bad magic":     append([]byte("XXXX"), data[4:]...),
		"truncated 25%": data[:len(data)/4],
		"truncated 90%": data[:len(data)*9/10],
	}
	// Unknown version: patch the version byte.
	bad := append([]byte(nil), data...)
	bad[4] = CodecVersion + 1
	cases["future version"] = bad

	for name, c := range cases {
		if _, err := DecodeBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
}

func TestDecodeRejectsDanglingRef(t *testing.T) {
	g := NewGraph()
	a := g.NewInt(1)
	p := g.NewComplex(Ref{Label: "x", Target: a})
	g.SetRoot("r", p)
	data := encode(t, g)
	// Corrupt a single ref target to a non-existent oid by brute force:
	// flip trailing bytes until decode fails with a validation error (CRC
	// protection lives a layer up in snapstore, so some flips will parse).
	sawValidation := false
	for off := len(data) / 2; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x7F
		_, err := DecodeBinary(bytes.NewReader(mut))
		if err != nil && strings.Contains(err.Error(), "dangling") {
			sawValidation = true
			break
		}
	}
	if !sawValidation {
		t.Skip("no mutation produced a dangling ref; validation covered elsewhere")
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// A payload whose label count claims 2^62 entries must fail fast on
	// EOF, not allocate.
	var buf bytes.Buffer
	buf.Write(codecMagic[:])
	buf.WriteByte(CodecVersion)
	buf.Write([]byte{0x01})                                     // next = 1
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // huge label count
	if _, err := DecodeBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("decoded a payload with an absurd label count")
	}
}
