package oem

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomGraph builds a pseudo-random OEM graph with up to n objects,
// including shared substructure and (sometimes) cycles. It returns the graph
// and a root complex object that can reach a good portion of it.
func randomGraph(r *rand.Rand, n int) (*Graph, OID) {
	g := NewGraph()
	labels := []string{"a", "b", "Symbol", "Links", "GO", "x y", "Value", "Ref"}
	var ids []OID
	for i := 0; i < n; i++ {
		switch r.Intn(7) {
		case 0:
			ids = append(ids, g.NewInt(r.Int63n(10000)-5000))
		case 1:
			ids = append(ids, g.NewReal(float64(r.Intn(1000))/8))
		case 2:
			ids = append(ids, g.NewString(randWord(r)))
		case 3:
			ids = append(ids, g.NewBool(r.Intn(2) == 0))
		case 4:
			ids = append(ids, g.NewURL("http://t.test/"+randWord(r)))
		case 5:
			ids = append(ids, g.NewGif([]byte(randWord(r))))
		default:
			var refs []Ref
			for k := 0; k < r.Intn(4) && len(ids) > 0; k++ {
				refs = append(refs, Ref{
					Label:  labels[r.Intn(len(labels))],
					Target: ids[r.Intn(len(ids))],
				})
			}
			ids = append(ids, g.NewComplex(refs...))
		}
	}
	var rootRefs []Ref
	for _, id := range ids {
		rootRefs = append(rootRefs, Ref{Label: labels[rand.Intn(len(labels))], Target: id})
	}
	root := g.NewComplex(rootRefs...)
	// Occasionally close a cycle back to the root.
	if len(ids) > 0 && r.Intn(2) == 0 {
		if o := g.Get(ids[len(ids)-1]); o.Kind == KindComplex {
			_ = g.AddRef(ids[len(ids)-1], "cycle", root)
		}
	}
	g.SetRoot("R", root)
	return g, root
}

func randWord(r *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz \"\\tαβ"
	n := 1 + r.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[r.Intn(26)]) // keep mostly simple, specials below
	}
	if r.Intn(4) == 0 {
		sb.WriteString(` "quoted\` + "\t")
	}
	return sb.String()
}

// Property: text encode/decode round-trips arbitrary graphs.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, root := randomGraph(r, int(size%60)+1)
		text, err := AppendText(nil, g, "R", root)
		if err != nil {
			t.Logf("encode error: %v", err)
			return false
		}
		g2, err := DecodeText(strings.NewReader(string(text)))
		if err != nil {
			t.Logf("decode error: %v\ntext:\n%s", err, text)
			return false
		}
		return DeepEqual(g, root, g2, g2.Root("R"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Import preserves DeepEqual and produces a valid graph.
func TestQuickImportPreservesStructure(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, root := randomGraph(r, int(size%40)+1)
		dst := NewGraph()
		nr, err := dst.Import(g, root)
		if err != nil {
			return false
		}
		if dst.Validate() != nil {
			return false
		}
		return DeepEqual(g, root, dst, nr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Equal is reflexive for atoms.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		mk := func() *Object {
			switch r.Intn(5) {
			case 0:
				return g.Get(g.NewInt(r.Int63n(100) - 50))
			case 1:
				return g.Get(g.NewReal(float64(r.Intn(100)) / 4))
			case 2:
				return g.Get(g.NewString(randWord(r)))
			case 3:
				return g.Get(g.NewBool(r.Intn(2) == 0))
			default:
				return g.Get(g.NewURL("http://q.test/" + randWord(r)))
			}
		}
		a, b := mk(), mk()
		ab, okAB := Compare(a, b)
		ba, okBA := Compare(b, a)
		if okAB != okBA {
			return false
		}
		if okAB && ab != -ba {
			return false
		}
		// Reflexivity.
		if c, ok := Compare(a, a); !ok || c != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: likeMatch("%"+s+"%") always matches any superstring of s.
func TestQuickLikeSubstring(t *testing.T) {
	f := func(pre, mid, post string) bool {
		if strings.ContainsAny(mid, "%_") {
			return true // wildcard chars in the needle change semantics
		}
		s := strings.ToLower(pre + mid + post)
		return likeMatch(s, "%"+strings.ToLower(mid)+"%")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppendText(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g, root := randomGraph(r, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendText(nil, g, "R", root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeText(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g, root := randomGraph(r, 2000)
	text := TextString(g, "R", root)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeText(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
