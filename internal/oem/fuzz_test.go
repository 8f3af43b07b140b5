package oem

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

// fuzzSeedGraphs returns representative graphs whose encodings seed the
// corpus: every atom kind, a multi-root graph, nested complex objects,
// and the empty graph.
func fuzzSeedGraphs() []*Graph {
	empty := NewGraph()

	atoms := NewGraph()
	aroot := atoms.NewComplex(
		Ref{Label: "I", Target: atoms.NewInt(-42)},
		Ref{Label: "R", Target: atoms.NewReal(3.25)},
		Ref{Label: "S", Target: atoms.NewString("tp53")},
		Ref{Label: "B", Target: atoms.NewBool(true)},
		Ref{Label: "U", Target: atoms.NewURL("https://example.org/entry/1")},
		Ref{Label: "G", Target: atoms.NewGif([]byte{0x47, 0x49, 0x46, 0x00})},
	)
	atoms.SetRoot("DB", aroot)

	nested := NewGraph()
	leaf := nested.NewComplex(Ref{Label: "Name", Target: nested.NewString("x")})
	mid := nested.NewComplex(Ref{Label: "Entry", Target: leaf})
	top := nested.NewComplex(Ref{Label: "Entry", Target: mid}, Ref{Label: "Entry", Target: leaf})
	nested.SetRoot("A", top)
	nested.SetRoot("B", mid)

	return []*Graph{empty, atoms, nested}
}

// FuzzDecodeBinary throws arbitrary bytes at the binary graph codec.
// Decode may reject input but must never panic; anything it accepts must
// be a valid graph that re-encodes deterministically (the snapstore
// checkpoint format depends on byte-identical re-encoding).
func FuzzDecodeBinary(f *testing.F) {
	for _, g := range fuzzSeedGraphs() {
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("OEM1garbage"))
	for _, in := range sparseInputs() {
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decode accepted an invalid graph: %v", err)
		}
		if len(g.objs)-1 > int(oidSpanLimit(g.live)) {
			t.Fatalf("decode made a table of %d entries for %d objects from %d bytes", len(g.objs), g.live, len(data))
		}
		var a, b bytes.Buffer
		if err := EncodeBinary(&a, g); err != nil {
			t.Fatalf("re-encode of a decoded graph failed: %v", err)
		}
		if err := EncodeBinary(&b, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("re-encoding a decoded graph is not deterministic")
		}
	})
}

// sparseInputs are binary encodings whose oids are wildly out of
// proportion to their contents: one object at an oid near 2^63, and one
// object under a declared next oid of 2^62.
func sparseInputs() [][]byte {
	encode := func(next, id uint64) []byte {
		var buf bytes.Buffer
		e := wire.NewEncoder(&buf)
		e.Raw(codecMagic[:])
		e.U8(CodecVersion)
		e.Uvarint(next)
		e.Uvarint(0) // labels
		e.Uvarint(1) // objects
		e.Uvarint(id)
		e.U8(byte(KindInt))
		e.U64(42)
		e.Uvarint(0) // roots
		if err := e.Flush(); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	return [][]byte{encode(1, 1<<63-1), encode(1<<62, 1)}
}

// TestDecodeRejectsSparseOIDs: an input naming an oid far out of proportion
// to its length fails fast, without allocating a table that reaches the
// oid — binary (an oid near 2^63, a next of 2^62) and text (&2^64-1).
func TestDecodeRejectsSparseOIDs(t *testing.T) {
	decoders := map[string]func() error{
		"text &18446744073709551615": func() error {
			_, err := DecodeText(strings.NewReader("a &18446744073709551615 integer 1\n"))
			return err
		},
		"text child &1000000": func() error {
			_, err := DecodeText(strings.NewReader("a &1 complex\n  b &1000000 integer 1\n"))
			return err
		},
	}
	for i, in := range sparseInputs() {
		in := in
		decoders[[]string{"binary oid 2^63-1", "binary next 2^62"}[i]] = func() error {
			_, err := DecodeBinary(bytes.NewReader(in))
			return err
		}
	}
	for name, decode := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", name, n)
		}
	}
}
