package oem

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jsonstr"
)

// This file keeps the fmt-based Figure 3 and canonical encoders the append
// walker in text.go replaced, frozen as the reference both must match byte
// for byte. Do not "fix" them: they define the wire format.

func refTextString(g *Graph, label string, id OID) (string, error) {
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	if err := refEncodeObject(bw, g, label, id, 0, make(map[OID]bool)); err != nil {
		return "", err
	}
	err := bw.Flush()
	return sb.String(), err
}

func refEncodeObject(w *bufio.Writer, g *Graph, label string, id OID, depth int, seen map[OID]bool) error {
	o := g.Get(id)
	if o == nil {
		return fmt.Errorf("oem: encode: no object %v", id)
	}
	for i := 0; i < depth; i++ {
		if _, err := w.WriteString(indentUnit); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %s %s", refSanitizeLabel(label), o.ID, o.Kind); err != nil {
		return err
	}
	switch o.Kind {
	case KindComplex:
		if seen[id] {
			_, err := w.WriteString("\n")
			return err
		}
		seen[id] = true
		if _, err := w.WriteString("\n"); err != nil {
			return err
		}
		for _, r := range o.Refs {
			if err := refEncodeObject(w, g, r.Label, r.Target, depth+1, seen); err != nil {
				return err
			}
		}
		return nil
	case KindGif:
		_, err := fmt.Fprintf(w, " %s\n", base64.StdEncoding.EncodeToString(o.Raw))
		return err
	default:
		_, err := fmt.Fprintf(w, " %s\n", o.AtomString())
		return err
	}
}

func refCanonicalText(g *Graph, label string, id OID) string {
	var sb strings.Builder
	refCanonicalObject(&sb, g, label, id, 0, make(map[OID]bool))
	return sb.String()
}

func refCanonicalObject(sb *strings.Builder, g *Graph, label string, id OID, depth int, onPath map[OID]bool) {
	o := g.Get(id)
	for i := 0; i < depth; i++ {
		sb.WriteString(indentUnit)
	}
	if o == nil {
		fmt.Fprintf(sb, "%s <missing>\n", refSanitizeLabel(label))
		return
	}
	if onPath[id] {
		fmt.Fprintf(sb, "%s <cycle>\n", refSanitizeLabel(label))
		return
	}
	switch o.Kind {
	case KindComplex:
		fmt.Fprintf(sb, "%s complex\n", refSanitizeLabel(label))
		onPath[id] = true
		children := make([]string, 0, len(o.Refs))
		for _, r := range o.Refs {
			var child strings.Builder
			refCanonicalObject(&child, g, r.Label, r.Target, depth+1, onPath)
			children = append(children, child.String())
		}
		delete(onPath, id)
		sort.Strings(children)
		for _, c := range children {
			sb.WriteString(c)
		}
	case KindGif:
		fmt.Fprintf(sb, "%s gif %s\n", refSanitizeLabel(label), base64.StdEncoding.EncodeToString(o.Raw))
	default:
		fmt.Fprintf(sb, "%s %s %s\n", refSanitizeLabel(label), o.Kind, o.AtomString())
	}
}

func refSanitizeLabel(label string) string {
	if label == "" {
		return "_"
	}
	if strings.ContainsAny(label, " \t\n&") {
		return strconv.Quote(label)
	}
	return label
}

// checkAgainstReference asserts that every text form of the subgraph at
// root, and the JSON string the server quotes the Figure 3 text into, are
// the reference encoders' bytes.
func checkAgainstReference(t *testing.T, g *Graph, label string, root OID) {
	t.Helper()
	want, err := refTextString(g, label, root)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	got, err := AppendText(nil, g, label, root)
	if err != nil {
		t.Fatalf("AppendText: %v", err)
	}
	if string(got) != want {
		t.Fatalf("AppendText differs from the reference\n got: %q\nwant: %q", got, want)
	}
	if s := TextString(g, label, root); s != want {
		t.Fatalf("TextString differs from the reference\n got: %q\nwant: %q", s, want)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON := jsonstr.Append(nil, got); !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("jsonstr.Append differs from json.Marshal\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if got, want := CanonicalText(g, label, root), refCanonicalText(g, label, root); got != want {
		t.Fatalf("CanonicalText differs from the reference\n got: %q\nwant: %q", got, want)
	}
}

// TestTextMatchesReference runs the reference comparison over the fuzz
// seeds and a spread of random graphs with shared and cyclic structure.
func TestTextMatchesReference(t *testing.T) {
	for _, g := range fuzzSeedGraphs() {
		for _, r := range g.roots {
			checkAgainstReference(t, g, r.Name, r.OID)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		g, root := randomGraph(rand.New(rand.NewSource(seed)), int(seed%60)+1)
		checkAgainstReference(t, g, "R", root)
	}
	for _, data := range textFuzzSeeds() {
		g, root := fuzzGraph(data)
		checkAgainstReference(t, g, "answer", root)
	}
}

// TestAppendTextMissingObject: a reference to an object the graph does not
// hold is an error from every encoder that can return one, and the text
// AppendText hands back with it stops before the dangling line.
func TestAppendTextMissingObject(t *testing.T) {
	g := NewGraph()
	root := g.NewComplex(Ref{Label: "Symbol", Target: g.NewString("TP53")}, Ref{Label: "Gone", Target: 999})
	g.SetRoot("answer", root)
	b, err := AppendText(nil, g, "answer", root)
	if err == nil || !strings.Contains(err.Error(), "&999") {
		t.Fatalf("AppendText error = %v, want one naming &999", err)
	}
	if want := "answer &2 complex\n  Symbol &1 string \"TP53\"\n"; string(b) != want {
		t.Errorf("partial text = %q, want %q", b, want)
	}
	if got := CanonicalText(g, "answer", root); got != refCanonicalText(g, "answer", root) {
		t.Errorf("CanonicalText = %q, want the reference's", got)
	}
}

// fuzzLabels are reference labels the line format must quote or pass
// through: separators, quotes, non-ASCII and the JSON-sensitive U+2028.
var fuzzLabels = []string{
	"", "Gene", "x y", "a&b", "tab\there", "new\nline", `q"uote`, `back\slash`,
	"ünïcödé", "sep\u2028arator", "para\u2029", "<html>", "\x00ctl",
}

// fuzzGraph builds a graph from fuzzed bytes. Each step reads an opcode:
// a new atom or complex object hung under an existing complex object, or a
// further reference between existing objects — which makes shared
// structure, and cycles when it points back up. Every object is reachable
// from the returned root and no reference dangles.
func fuzzGraph(data []byte) (*Graph, OID) {
	r := fuzzReader{data: data}
	g := NewGraph()
	root := g.NewComplex()
	g.SetRoot("answer", root)
	complexes, all := []OID{root}, []OID{root}
	for refs := 0; !r.done() && len(all) < 64 && refs < 32; refs++ {
		op := r.byte() % 8
		if op == 7 {
			_ = g.AddRef(complexes[int(r.byte())%len(complexes)], r.label(), all[int(r.byte())%len(all)])
			continue
		}
		var id OID
		switch op {
		case 0:
			id = g.NewInt(int64(r.uint64()))
		case 1:
			id = g.NewReal(r.real())
		case 2:
			id = g.NewString(string(r.bytes()))
		case 3:
			id = g.NewURL(string(r.bytes()))
		case 4:
			id = g.NewBool(r.byte()&1 == 1)
		case 5:
			id = g.NewGif(r.bytes())
		case 6:
			id = g.NewComplex()
			complexes = append(complexes, id)
		}
		_ = g.AddRef(complexes[int(r.byte())%len(complexes)], r.label(), id)
		all = append(all, id)
	}
	return g, root
}

// fuzzReader hands out fuzzed bytes; past the end it reads zeros.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) done() bool { return len(r.data) == 0 }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) bytes() []byte {
	n := min(int(r.byte()%32), len(r.data))
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *fuzzReader) uint64() uint64 {
	var buf [8]byte
	copy(buf[:], r.bytes())
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *fuzzReader) real() float64 {
	switch r.byte() % 6 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return float64(int64(r.uint64())) / 1024
	}
	return math.Float64frombits(r.uint64())
}

// label is one of fuzzLabels, or fuzzed bytes when the index runs past them.
func (r *fuzzReader) label() string {
	if i := int(r.byte()); i < len(fuzzLabels) {
		return fuzzLabels[i]
	}
	return string(r.bytes())
}

// textFuzzSeeds are inputs for fuzzGraph that reach every opcode, label and
// special real, a string with control bytes and invalid UTF-8, a gif, and a
// reference back to the root. An opcode is followed by its payload, then
// the parent and label bytes of the reference that hangs it.
func textFuzzSeeds() [][]byte {
	var seeds [][]byte
	for i := range fuzzLabels {
		seeds = append(seeds, []byte{
			6, 0, byte(i), // complex under the root
			2, 9, 'a', 0x01, '\n', 0xff, 0xe2, 0x80, 0xa8, '<', '&', 1, byte(i), // string under it
			1, 0, 0, 1, 1, 1, 0, 1, 1, 2, 0, 1, 1, 3, 0, 1, // reals: NaN, +Inf, -Inf, -0
			1, 4, 3, 1, 2, 3, 0, 1, // a real from a scaled integer
			5, 4, 'G', 'I', 'F', 0, 0, 0, // gif
			0, 8, 1, 2, 3, 4, 5, 6, 7, 0x80, 1, 0, // integer
			3, 5, 'h', 't', 't', 'p', ':', 1, 1, // url
			4, 1, 0, 2, // bool
			7, 1, 3, 0, // the child complex refers back to the root: a cycle
			7, 0, 1, 1, // the root refers to its child again: sharing
			7, 1, 200, 3, 'l', ' ', 'x', 2, // a fuzzed label
		})
	}
	return append(seeds, nil, []byte{6, 6, 6, 6, 6, 6, 7, 7, 7, 7})
}

// FuzzTextEncode checks the append walker against the frozen reference on
// fuzzed graphs — labels with separators, quotes, non-ASCII and U+2028;
// strings with control bytes and invalid UTF-8; NaN, ±Inf and −0 reals;
// gifs; shared and cyclic complex objects — and the JSON quoting of its
// text against json.Marshal of the reference text.
func FuzzTextEncode(f *testing.F) {
	for _, s := range textFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, root := fuzzGraph(data)
		checkAgainstReference(t, g, "answer", root)
	})
}
