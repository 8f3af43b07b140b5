package lorel

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/oem"
)

// postingsGraph is a 150-gene graph for the postings tests: more bindings
// than one bitset word holds, wide genes (label-indexed) beside narrow ones,
// repeated and nested labels, and a subobject two genes share.
func postingsGraph(t testing.TB) *oem.Graph {
	g := oem.NewGraph()
	shared := g.NewComplex(oem.Ref{Label: "Name", Target: g.NewString("shared term")})
	var genes []oem.Ref
	for i := range 150 {
		refs := []oem.Ref{{Label: "Symbol", Target: g.NewString(fmt.Sprintf("G%d", i))}}
		if i%3 != 0 {
			var links []oem.Ref
			if i%2 == 0 {
				links = append(links, oem.Ref{Label: "GO", Target: g.NewURL("http://go.test/" + fmt.Sprint(i))})
			}
			if i%5 == 0 {
				links = append(links, oem.Ref{Label: "OMIM", Target: g.NewURL("http://omim.test/" + fmt.Sprint(i))})
			}
			refs = append(refs, oem.Ref{Label: "Links", Target: g.NewComplex(links...)})
		}
		for a := range i % 4 {
			ann := []oem.Ref{{Label: "GoID", Target: g.NewInt(int64(1000*i + a))}}
			if a == 1 {
				ann = append(ann, oem.Ref{Label: "Term", Target: shared})
			}
			refs = append(refs, oem.Ref{Label: "Annotation", Target: g.NewComplex(ann...)})
		}
		if i%7 == 0 {
			refs = append(refs, oem.Ref{Label: "Disease", Target: g.NewComplex(
				oem.Ref{Label: "MimNumber", Target: g.NewInt(int64(i))})})
		}
		if i%11 == 0 { // wide enough for the label index
			for p := range 9 {
				refs = append(refs, oem.Ref{Label: fmt.Sprintf("Pad%d", p%3), Target: g.NewInt(int64(p))})
			}
		}
		genes = append(genes, oem.Ref{Label: "Gene", Target: g.NewComplex(refs...)})
	}
	g.SetRoot("DB", g.NewComplex(genes...))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// existsGen turns fuzz bytes into an exists-only where clause; exhausted
// input reads as zeros.
type existsGen struct {
	data []byte
	i    int
}

func (r *existsGen) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return int(r.data[r.i-1])
}

var postingLabels = []string{"Symbol", "Links", "GO", "OMIM", "Annotation", "GoID", "Term", "Name", "Disease", "MimNumber", "Pad1", "Absent"}

// cond renders a random condition: and/or/not over exists tests whose
// paths mix present, absent and case-varied labels, and now and then a
// wildcard step or a root base, which must make the plan fall back. A
// wildcard step is drawn only under the from-variable.
func (r *existsGen) cond(depth int) string {
	switch op := r.next(); {
	case depth < 4 && op%8 == 1:
		return "(" + r.cond(depth+1) + " and " + r.cond(depth+1) + ")"
	case depth < 4 && op%8 == 2:
		return "(" + r.cond(depth+1) + " or " + r.cond(depth+1) + ")"
	case depth < 4 && op%8 == 3:
		return "not " + r.cond(depth+1)
	}
	base := "G"
	if r.next()%23 == 1 {
		base = "DB.Gene"
	}
	steps := []string{base}
	for range 1 + r.next()%3 {
		switch b := r.next(); {
		case base != "G": // a wildcard from the root walks the graph per binding
			steps = append(steps, postingLabels[b%len(postingLabels)])
		case b%19 == 1:
			steps = append(steps, "%")
		case b%29 == 2:
			steps = append(steps, "#")
		default:
			l := postingLabels[b%len(postingLabels)]
			switch r.next() % 3 {
			case 1:
				l = strings.ToUpper(l)
			case 2:
				l = strings.ToLower(l)
			}
			steps = append(steps, l)
		}
	}
	return "exists " + strings.Join(steps, ".")
}

// withoutPostings is ec with the postings bookkeeping cleared: what must
// not depend on how the where clause was answered.
func withoutPostings(ec EvalCounts) string {
	ec.WherePostings, ec.PostingsReused, ec.PostingsBuilt, ec.PostingsKept = false, 0, 0, 0
	return fmt.Sprintf("%+v", ec)
}

// FuzzExistsPostings: an exists-only where clause answered from postings on
// a frozen graph gives the answer, the Bindings and the EvalCounts the
// per-binding evaluator gives on an unfrozen clone — under no mask, a
// label mask and an object mask, the first time (postings built) and the
// second (postings reused). Shapes with a wildcard step or a root path
// must not compile to postings.
func FuzzExistsPostings(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 7, 2, 8, 9, 1, 2, 3, 5})
	f.Add([]byte{1, 0, 5, 1, 40, 1, 2, 2, 6, 0, 3, 9, 9})
	f.Add([]byte{2, 2, 0, 5, 1, 1, 13, 1, 8, 1, 4, 2})
	f.Add([]byte{3, 0, 1, 0, 38, 0, 6, 0, 1, 11, 2})
	f.Add([]byte{4, 0, 0, 1, 16, 2, 0, 0, 0, 0, 0, 0, 1})
	frozen := postingsGraph(f)
	frozen.Freeze()
	clone := frozen.Clone()
	var hideObjects oem.Bitset
	ids := frozen.OIDs()
	for i := 0; i < len(ids); i += 13 {
		hideObjects.Add(int(ids[i]))
	}
	masks := []*oem.Mask{nil, oem.NewMask([]string{"disease", "Pad1"}, nil), oem.NewMask([]string{"GO"}, hideObjects)}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &existsGen{data: data}
		mask := masks[r.next()%len(masks)]
		sel := []string{"G", "G.Symbol", "G.Links", "G.Annotation.Term"}[r.next()%4]
		src := "select " + sel + " from DB.Gene G where " + r.cond(0)
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		p, err := Compile(q)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		falls := strings.Contains(src, "%") || strings.Contains(src, "#") || strings.Contains(src, "DB.Gene.")
		if (p.exists == nil) != falls {
			t.Fatalf("%s: compiled to postings = %v", src, p.exists != nil)
		}
		var wantEC EvalCounts
		want, err := p.EvalMasked(clone, mask, &wantEC)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		wantText := oem.CanonicalText(want.Graph, "answer", want.Answer)
		for pass := range 2 {
			var ec EvalCounts
			got, err := p.EvalMasked(frozen, mask, &ec)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if text := oem.CanonicalText(got.Graph, "answer", got.Answer); text != wantText {
				t.Fatalf("%s (pass %d): answer differs from the per-binding evaluator's:\n%s\nwant\n%s", src, pass, text, wantText)
			}
			if got.Bindings != want.Bindings || withoutPostings(ec) != withoutPostings(wantEC) {
				t.Fatalf("%s (pass %d): bindings %d, counts %s; per-binding %d, %s", src, pass, got.Bindings, withoutPostings(ec), want.Bindings, withoutPostings(wantEC))
			}
			if ec.WherePostings != (p.exists != nil) {
				t.Fatalf("%s: answered from postings = %v", src, ec.WherePostings)
			}
			if pass == 1 && ec.PostingsBuilt > 0 && ec.PostingsReused == 0 {
				t.Fatalf("%s: the second evaluation reused no posting (built %d)", src, ec.PostingsBuilt)
			}
		}
		if wantEC.WherePostings {
			t.Fatalf("%s: the unfrozen clone was answered from postings", src)
		}
	})
}

// TestPostingsMemoBounded: the memo keeps only non-empty postings, so
// 10,000 distinct absent paths leave it as it was, and case variants of one
// path share one posting.
func TestPostingsMemoBounded(t *testing.T) {
	g := postingsGraph(t)
	g.Freeze()
	eval := func(src string) EvalCounts {
		t.Helper()
		var ec EvalCounts
		if _, err := compilePlan(t, src).EvalMasked(g, nil, &ec); err != nil {
			t.Fatal(err)
		}
		if !ec.WherePostings {
			t.Fatalf("%s: not answered from postings", src)
		}
		return ec
	}
	eval(`select G from DB.Gene G where exists G.Links.GO and not exists G.Disease`)
	kept := g.Postings()
	if kept != 3 { // the binding list and two postings
		t.Fatalf("memo keeps %d postings, want 3", kept)
	}
	for i := range 10000 {
		eval(fmt.Sprintf(`select G from DB.Gene G where exists G.Absent%d or exists G.Links.Absent%d`, i, i))
	}
	if g.Postings() != kept {
		t.Fatalf("10,000 absent paths grew the memo from %d to %d postings", kept, g.Postings())
	}
	ec := eval(`select G.Symbol from DB.GENE G where exists G.LINKS.go and not exists G.disease`)
	if ec.PostingsBuilt != 0 || ec.PostingsReused != 3 || g.Postings() != kept {
		t.Fatalf("case variants: built %d, reused %d, memo %d; want 0, 3, %d", ec.PostingsBuilt, ec.PostingsReused, g.Postings(), kept)
	}
}

// TestPostingsConcurrent: goroutines evaluating exists-only queries on one
// fresh frozen graph race to build and keep the same postings; every answer
// still equals the per-binding evaluator's. Run under -race.
func TestPostingsConcurrent(t *testing.T) {
	frozen := postingsGraph(t)
	frozen.Freeze()
	clone := frozen.Clone()
	mask := oem.NewMask([]string{"OMIM"}, nil)
	queries := []string{
		`select G.Symbol from DB.Gene G where exists G.Links.GO and not exists G.Disease`,
		`select G from DB.Gene G where exists G.Annotation.Term or exists G.Disease.MimNumber`,
		`select G.Links from DB.Gene G where not (exists G.Links.OMIM or exists G.Annotation)`,
	}
	want := make([]string, len(queries))
	plans := make([]*Plan, len(queries))
	for i, src := range queries {
		plans[i] = compilePlan(t, src)
		res, err := plans[i].EvalMasked(clone, mask, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = oem.CanonicalText(res.Graph, "answer", res.Answer)
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 * len(queries) {
				i := (w + r) % len(queries)
				res, err := plans[i].EvalMasked(frozen, mask, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := oem.CanonicalText(res.Graph, "answer", res.Answer); got != want[i] {
					t.Errorf("%s: answer differs from the per-binding evaluator's", queries[i])
				}
			}
		}()
	}
	wg.Wait()
}
