package lorel

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/oem"
)

// testGraph builds a small annotation-flavoured OEM database:
//
//	DB
//	 ├─ Gene (FOSB, human, 19q13) ── Links ── GO url, OMIM url
//	 ├─ Gene (JUNB, human, 19p13)  ── Links ── GO url
//	 └─ Gene (Tp53, mouse, 11p13)  (no links)
func testGraph(t testing.TB) *oem.Graph {
	g := oem.NewGraph()
	mkGene := func(sym, org, pos string, id int64, links map[string]string) oem.OID {
		refs := []oem.Ref{
			{Label: "LocusID", Target: g.NewInt(id)},
			{Label: "Symbol", Target: g.NewString(sym)},
			{Label: "Organism", Target: g.NewString(org)},
			{Label: "Position", Target: g.NewString(pos)},
		}
		if len(links) > 0 {
			var lrefs []oem.Ref
			for _, db := range []string{"GO", "OMIM"} {
				if u, ok := links[db]; ok {
					lrefs = append(lrefs, oem.Ref{Label: db, Target: g.NewURL(u)})
				}
			}
			refs = append(refs, oem.Ref{Label: "Links", Target: g.NewComplex(lrefs...)})
		}
		return g.NewComplex(refs...)
	}
	g1 := mkGene("FOSB", "Homo sapiens", "19q13", 2354, map[string]string{
		"GO": "http://go.test/GO:1", "OMIM": "http://omim.test/164772",
	})
	g2 := mkGene("JUNB", "Homo sapiens", "19p13", 3726, map[string]string{
		"GO": "http://go.test/GO:2",
	})
	g3 := mkGene("Tp53", "Mus musculus", "11p13", 22059, nil)
	root := g.NewComplex(
		oem.Ref{Label: "Gene", Target: g1},
		oem.Ref{Label: "Gene", Target: g2},
		oem.Ref{Label: "Gene", Target: g3},
	)
	g.SetRoot("DB", root)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func symbolsOf(t testing.TB, r *Result, label string) []string {
	t.Helper()
	var out []string
	for _, oid := range r.Graph.Children(r.Answer, label) {
		if s := r.Graph.StringUnder(oid, "Symbol"); s != "" {
			out = append(out, s)
			continue
		}
		if o := r.Graph.Get(oid); o != nil && o.IsAtomic() {
			out = append(out, o.AtomString())
		}
	}
	return out
}

func TestParseAndStringRoundTrip(t *testing.T) {
	cases := []string{
		`select X from DB.Gene X where X.Symbol = "FOSB"`,
		`select G.Symbol from DB.Gene G`,
		`select X from DB.Gene X where exists X.Links.GO`,
		`select X from DB.Gene X where X.LocusID > 3000 and not (X.Organism = "Mus musculus")`,
		`select X from DB.Gene X where X.Symbol like "%b"`,
		`select X from DB.(Gene|Pseudogene) X`,
		`select X from DB.# X where X.Symbol = "FOSB"`,
		`select X from DB.%.% X`,
		`select X from DB.(Gene)* X`,
		`select A, B.Name as N from DB.Gene A, DB.Gene B`,
	}
	for _, src := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		// Re-parse the rendering: must be stable.
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", q.String(), err)
			continue
		}
		if q.String() != q2.String() {
			t.Errorf("unstable rendering: %q vs %q", q.String(), q2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`from DB.Gene X`,
		`select from DB`,
		`select X from`,
		`select X from DB.Gene X where`,
		`select X from DB.Gene X where X.Symbol =`,
		`select X from DB.Gene X where like "x"`,
		`select X from DB.(Gene X`,
		`select X from DB.Gene X where X.Symbol like 5`,
		`select X from DB..Gene X`,
		`select X from DB.Gene X extra`,
		`select X from DB.Gene X where X.select = 1`,
		`select X from DB.Gene X where "unterminated`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestPaperQueryShape(t *testing.T) {
	// The paper's §4.1 query (modulo the typo in the proceedings):
	// select X from ANNODA-GML.Source X where X.Name = "LocusLink".
	g := oem.NewGraph()
	mkSource := func(id int64, name string) oem.OID {
		return g.NewComplex(
			oem.Ref{Label: "SourceID", Target: g.NewInt(id)},
			oem.Ref{Label: "Name", Target: g.NewString(name)},
			oem.Ref{Label: "Content", Target: g.NewComplex()},
			oem.Ref{Label: "Structure", Target: g.NewComplex()},
		)
	}
	root := g.NewComplex(
		oem.Ref{Label: "Source", Target: mkSource(1, "LocusLink")},
		oem.Ref{Label: "Source", Target: mkSource(2, "GO")},
		oem.Ref{Label: "Source", Target: mkSource(3, "OMIM")},
	)
	g.SetRoot("ANNODA-GML", root)

	q := MustParse(`select X from ANNODA-GML.Source X where X.Name = "LocusLink"`)
	r, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	xs := r.Graph.Children(r.Answer, "X")
	if len(xs) != 1 {
		t.Fatalf("answer has %d X edges, want 1", len(xs))
	}
	// The answer object is new (coercion created fresh oids)...
	if r.Graph == g {
		t.Fatal("answer not in a fresh graph")
	}
	// ...and carries the paper's four children.
	for _, label := range []string{"SourceID", "Name", "Content", "Structure"} {
		if r.Graph.Child(xs[0], label) == 0 {
			t.Errorf("answer Source missing %s", label)
		}
	}
	if got := r.Graph.StringUnder(xs[0], "Name"); got != "LocusLink" {
		t.Errorf("Name = %q", got)
	}
}

func TestEvalSimpleFilter(t *testing.T) {
	g := testGraph(t)
	r, err := Eval(g, MustParse(`select X from DB.Gene X where X.Organism = "Homo sapiens"`))
	if err != nil {
		t.Fatal(err)
	}
	syms := symbolsOf(t, r, "X")
	if len(syms) != 2 || syms[0] != "FOSB" || syms[1] != "JUNB" {
		t.Fatalf("symbols = %v", syms)
	}
}

func TestEvalProjection(t *testing.T) {
	g := testGraph(t)
	r, err := Eval(g, MustParse(`select G.Symbol from DB.Gene G`))
	if err != nil {
		t.Fatal(err)
	}
	// Answer edges labelled by the last path label.
	vals := r.Graph.Children(r.Answer, "Symbol")
	if len(vals) != 3 {
		t.Fatalf("%d Symbol edges", len(vals))
	}
	if o := r.Graph.Get(vals[0]); o.Kind != oem.KindString {
		t.Errorf("projected value kind = %v", o.Kind)
	}
}

func TestEvalExistsAndNegation(t *testing.T) {
	g := testGraph(t)
	// Genes with GO links but no OMIM link — the Figure 5(b) pattern.
	r, err := Eval(g, MustParse(
		`select X from DB.Gene X where exists X.Links.GO and not exists X.Links.OMIM`))
	if err != nil {
		t.Fatal(err)
	}
	syms := symbolsOf(t, r, "X")
	if len(syms) != 1 || syms[0] != "JUNB" {
		t.Fatalf("symbols = %v", syms)
	}
	// Bare path predicate is an implicit exists.
	r2, err := Eval(g, MustParse(`select X from DB.Gene X where X.Links`))
	if err != nil {
		t.Fatal(err)
	}
	if got := symbolsOf(t, r2, "X"); len(got) != 2 {
		t.Fatalf("bare-path exists gave %v", got)
	}
}

func TestEvalCoercionIntString(t *testing.T) {
	g := testGraph(t)
	// LocusID is an integer; compare against a string literal.
	r, err := Eval(g, MustParse(`select X from DB.Gene X where X.LocusID = "2354"`))
	if err != nil {
		t.Fatal(err)
	}
	if got := symbolsOf(t, r, "X"); len(got) != 1 || got[0] != "FOSB" {
		t.Fatalf("coerced compare gave %v", got)
	}
	// Range comparisons.
	r2, _ := Eval(g, MustParse(`select X from DB.Gene X where X.LocusID >= 3726`))
	if got := symbolsOf(t, r2, "X"); len(got) != 2 {
		t.Fatalf("range compare gave %v", got)
	}
}

func TestEvalLike(t *testing.T) {
	g := testGraph(t)
	r, err := Eval(g, MustParse(`select X from DB.Gene X where X.Symbol like "%b"`))
	if err != nil {
		t.Fatal(err)
	}
	if got := symbolsOf(t, r, "X"); len(got) != 2 { // FOSB, JUNB (case-insensitive)
		t.Fatalf("like gave %v", got)
	}
}

func TestEvalWildcards(t *testing.T) {
	g := testGraph(t)
	// '%' matches one label: DB.% reaches the three genes.
	r, err := Eval(g, MustParse(`select X from DB.% X where X.Symbol = "FOSB"`))
	if err != nil {
		t.Fatal(err)
	}
	if got := symbolsOf(t, r, "X"); len(got) != 1 {
		t.Fatalf("wildcard gave %v", got)
	}
	// '#' reaches arbitrary depth: find url atoms anywhere. The answer edge
	// is labelled by the select expression — here the variable U.
	r2, err := Eval(g, MustParse(`select U from DB.#.GO U`))
	if err != nil {
		t.Fatal(err)
	}
	urls := r2.Graph.Children(r2.Answer, "U")
	if len(urls) != 2 {
		t.Fatalf("%d GO urls via #", len(urls))
	}
	// '#' with zero steps also matches the start object.
	r3, err := Eval(g, MustParse(`select X from DB.Gene X where exists X.#`))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Bindings != 3 {
		t.Fatalf("bindings = %d", r3.Bindings)
	}
}

func TestEvalAlternationAndQuantifiers(t *testing.T) {
	g := testGraph(t)
	r, err := Eval(g, MustParse(`select U from DB.Gene.Links.(GO|OMIM) U`))
	if err != nil {
		t.Fatal(err)
	}
	// Edge label defaults to the last literal label... inside a group there
	// is none, so it falls back to the base/last label: check total count.
	total := len(r.Graph.Get(r.Answer).Refs)
	if total != 3 {
		t.Fatalf("%d url edges, want 3", total)
	}
	// Optional group.
	r2, err := Eval(g, MustParse(`select X from DB.Gene.(Links)? X`))
	if err != nil {
		t.Fatal(err)
	}
	// Reaches 3 genes + 2 Links objects = 5 objects.
	if n := len(r2.Graph.Get(r2.Answer).Refs); n != 5 {
		t.Fatalf("optional group reached %d objects, want 5", n)
	}
}

func TestDuplicateEliminationByOID(t *testing.T) {
	g := testGraph(t)
	// Cross product would emit each gene three times without oid dedup.
	r, err := Eval(g, MustParse(`select X from DB.Gene X, DB.Gene Y`))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Graph.Children(r.Answer, "X")); n != 3 {
		t.Fatalf("%d X edges, want 3 (dedup by oid)", n)
	}
	if r.Bindings != 9 {
		t.Errorf("bindings = %d, want 9", r.Bindings)
	}
}

func TestSharedStructurePreservedInAnswer(t *testing.T) {
	g := testGraph(t)
	// Selecting both a gene and its Links child must share the Links object
	// in the answer graph rather than copying it twice.
	r, err := Eval(g, MustParse(`select X, X.Links from DB.Gene X where X.Symbol = "FOSB"`))
	if err != nil {
		t.Fatal(err)
	}
	xs := r.Graph.Children(r.Answer, "X")
	ls := r.Graph.Children(r.Answer, "Links")
	if len(xs) != 1 || len(ls) != 1 {
		t.Fatalf("edges: X=%d Links=%d", len(xs), len(ls))
	}
	if r.Graph.Child(xs[0], "Links") != ls[0] {
		t.Error("Links object duplicated in answer graph")
	}
}

func TestMultipleFromVariablesJoin(t *testing.T) {
	g := testGraph(t)
	// Self-join: pairs of distinct genes from the same organism.
	q := MustParse(`select A from DB.Gene A, DB.Gene B where A.Organism = B.Organism and A.LocusID < B.LocusID`)
	r, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := symbolsOf(t, r, "A"); len(got) != 1 || got[0] != "FOSB" {
		t.Fatalf("join gave %v", got)
	}
}

func TestVariableScopingFromClauseChaining(t *testing.T) {
	g := testGraph(t)
	// Second from clause ranges over the first variable's children.
	q := MustParse(`select L from DB.Gene X, X.Links L where X.Symbol = "FOSB"`)
	r, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Graph.Children(r.Answer, "L")); n != 1 {
		t.Fatalf("%d L edges", n)
	}
}

func TestUnknownBaseIsError(t *testing.T) {
	g := testGraph(t)
	if _, err := Eval(g, MustParse(`select X from Nowhere.Gene X`)); err == nil {
		t.Error("unknown root should be an error")
	}
	if _, err := Eval(g, MustParse(`select Z from DB.Gene X where Z.Symbol = "A"`)); err == nil {
		t.Error("unknown variable in where should be an error")
	}
}

func TestAnswerTextRendering(t *testing.T) {
	g := testGraph(t)
	r, _ := Eval(g, MustParse(`select X from DB.Gene X where X.Symbol = "FOSB"`))
	text := oem.TextString(r.Graph, "answer", r.Answer)
	if !strings.HasPrefix(text, "answer &1 complex") {
		t.Errorf("answer rendering:\n%s", text)
	}
	if !strings.Contains(text, `Symbol`) || !strings.Contains(text, `"FOSB"`) {
		t.Errorf("answer content missing:\n%s", text)
	}
}

func TestOriginTracksSources(t *testing.T) {
	g := testGraph(t)
	r, _ := Eval(g, MustParse(`select X from DB.Gene X`))
	for _, dst := range r.Graph.Children(r.Answer, "X") {
		src, ok := r.Origin[dst]
		if !ok {
			t.Fatal("answer object without origin")
		}
		if !oem.DeepEqual(g, src, r.Graph, dst) {
			t.Fatal("origin object differs from answer object")
		}
	}
}

func TestCaseInsensitiveLabelsAndRoots(t *testing.T) {
	g := testGraph(t)
	r, err := Eval(g, MustParse(`select X from db.gene X where X.symbol = "FOSB"`))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Graph.Children(r.Answer, "gene")); n != 0 {
		// Edge label defaults to last label as written: "gene".
		if n != 1 {
			t.Fatalf("%d edges", n)
		}
	}
	if r.Bindings != 1 {
		t.Fatalf("bindings = %d", r.Bindings)
	}
}

func TestCycleSafety(t *testing.T) {
	g := oem.NewGraph()
	a := g.NewComplex()
	b := g.NewComplex(oem.Ref{Label: "next", Target: a})
	_ = g.AddRef(a, "next", b)
	_ = g.AddRef(a, "val", g.NewInt(1))
	g.SetRoot("R", a)
	// '#' over a cyclic graph must terminate.
	r, err := Eval(g, MustParse(`select V from R.#.val V`))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Graph.Children(r.Answer, "V")); n != 1 {
		t.Fatalf("%d V edges", n)
	}
}

// TestPlanReuseMatchesEval: one compiled plan evaluated repeatedly (and
// against different graphs) must answer exactly like per-call Eval.
func TestPlanReuseMatchesEval(t *testing.T) {
	q := MustParse(`select X from DB.Gene X where exists X.Links.GO and X.Organism = "Homo sapiens"`)
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		g := testGraph(t)
		want, err := Eval(g, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Eval(g)
		if err != nil {
			t.Fatal(err)
		}
		ws, gs := symbolsOf(t, want, "X"), symbolsOf(t, got, "X")
		if len(ws) == 0 || !reflect.DeepEqual(ws, gs) {
			t.Fatalf("round %d: plan answers %v, Eval answers %v", round, gs, ws)
		}
		if oem.TextString(want.Graph, "answer", want.Answer) != oem.TextString(got.Graph, "answer", got.Answer) {
			t.Fatalf("round %d: plan answer graph diverges from Eval's", round)
		}
	}
}

// TestPlanConcurrentEval: a cached plan is shared across request
// goroutines; concurrent Evals must not trample each other's scratch.
func TestPlanConcurrentEval(t *testing.T) {
	g := testGraph(t)
	plan, err := Compile(MustParse(`select X from DB.Gene X where exists X.Links.GO`))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := plan.Eval(g)
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = r.Size()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if sizes[i] != 2 {
			t.Fatalf("goroutine %d saw %d answers, want 2", i, sizes[i])
		}
	}
}

// TestNonASCIIFolding: roots and labels must fold the same way for
// non-ASCII names. The old hand-rolled ASCII fold matched "DB" but not
// "ΔΒ", while labels went through Unicode ToLower — inconsistent.
func TestNonASCIIFolding(t *testing.T) {
	g := oem.NewGraph()
	gene := g.NewComplex(oem.Ref{Label: "Σύμβολο", Target: g.NewString("FOSB")})
	root := g.NewComplex(oem.Ref{Label: "Γονίδιο", Target: gene})
	g.SetRoot("Βάση-Ω", root)

	// Hand-built query (the lexer is a separate concern): uppercase base
	// and labels must match their lowercase graph forms.
	q := &Query{
		Select: []SelectItem{{Path: Path{Base: "X", Steps: []Step{LabelStep{Name: "ΣΎΜΒΟΛΟ"}}}, Label: "S"}},
		From:   []FromClause{{Path: Path{Base: "ΒΆΣΗ-Ω", Steps: []Step{LabelStep{Name: "ΓΟΝΊΔΙΟ"}}}, Var: "X"}},
	}
	r, err := Eval(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Graph.Children(r.Answer, "S")); n != 1 {
		t.Fatalf("%d S edges, want 1 (non-ASCII root or label failed to fold)", n)
	}
}

// TestCondPlanReuse: a compiled condition evaluates correctly across many
// bindings, which is how the mediator's pushdown uses it.
func TestCondPlanReuse(t *testing.T) {
	g := testGraph(t)
	q := MustParse(`select X from DB.Gene X where X.Organism = "Homo sapiens"`)
	cp, err := CompileCond(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	root := g.RootMatch("DB")
	human := 0
	for _, oid := range g.Children(root, "Gene") {
		ok, err := cp.Eval(g, map[string]oem.OID{"X": oid})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			human++
		}
	}
	if human != 2 {
		t.Fatalf("condition plan kept %d genes, want 2", human)
	}
	// Nil conditions compile to always-true.
	always, err := CompileCond(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := always.Eval(g, nil); err != nil || !ok {
		t.Fatalf("nil condition: %v %v, want true", ok, err)
	}
}

// TestIndexedAndScannedLabelMatchingAgree: the same label step must match
// identically whether the graph's label index is built (settled graphs) or
// the evaluator falls back to a ref scan (still-mutating graphs) — even for
// labels where Unicode ToLower and EqualFold disagree (Greek final sigma).
func TestIndexedAndScannedLabelMatchingAgree(t *testing.T) {
	g := oem.NewGraph()
	target := g.NewString("match")
	root := g.NewComplex(oem.Ref{Label: "Οδός", Target: target})
	g.SetRoot("R", root)

	path := compileSteps([]Step{LabelStep{Name: "ΟΔΌΣ"}})
	// The path step does not build the index: ref-scan path.
	scanned := evalNFA(g, nil, path, []oem.OID{root}, newScratch())
	g.EnsureLabelIndex()
	indexed := evalNFA(g, nil, path, []oem.OID{root}, newScratch())
	if len(scanned) != 1 || len(indexed) != 1 || scanned[0] != indexed[0] {
		t.Fatalf("scan matched %v, index matched %v — label folding diverges", scanned, indexed)
	}
}

// TestResultRendering pins the memo slot's contract: built bytes are kept
// only when the caller says the Result will be served again, kinds are
// independent, a build error is returned and not kept, and concurrent first
// callers all end up with one shared rendering.
func TestResultRendering(t *testing.T) {
	res, err := Eval(testGraph(t), MustParse(`select G from DB.Gene G`))
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	build := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { builds++; return []byte(s), nil }
	}

	if b, memo, _ := res.Rendering("text", false, build("one-shot")); memo || string(b) != "one-shot" {
		t.Errorf("unretained build = %q memo=%v", b, memo)
	}
	if b, memo, _ := res.Rendering("text", true, build("kept")); memo || string(b) != "kept" {
		t.Errorf("retained build = %q memo=%v, want a fresh build (the one-shot was not kept)", b, memo)
	}
	if b, memo, _ := res.Rendering("text", false, build("never")); !memo || string(b) != "kept" {
		t.Errorf("lookup = %q memo=%v, want the kept rendering", b, memo)
	}
	if b, memo, _ := res.Rendering("json", true, build("other kind")); memo || string(b) != "other kind" {
		t.Errorf("second kind = %q memo=%v", b, memo)
	}
	if builds != 3 {
		t.Errorf("build ran %d times, want 3", builds)
	}
	boom := errors.New("boom")
	if _, _, err := res.Rendering("bad", true, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Errorf("build error = %v, want it returned", err)
	}
	if _, memo, _ := res.Rendering("bad", true, build("ok")); memo {
		t.Error("a failed build was kept")
	}

	var wg sync.WaitGroup
	got := make([][]byte, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, _ = res.Rendering("raced", true, func() ([]byte, error) { return []byte("same"), nil })
		}(i)
	}
	wg.Wait()
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d holds its own copy: concurrent first callers must share the kept rendering", i)
		}
	}
}
