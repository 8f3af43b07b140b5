package mediator

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/lorel"
	"repro/internal/match"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/sources/protdb"
	"repro/internal/wrapper"
)

// metric reads one unlabelled series from the manager's registry — the one
// home of every cumulative counter.
func metric(m *Manager, name string) int64 { return m.Metrics().Value(name) }

func corpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 88, Genes: 60, GoTerms: 40, Diseases: 30,
		ConflictRate: 0.3, MissingRate: 0.15,
	})
}

func manager(t testing.TB, c *datagen.Corpus, opts Options) *Manager {
	t.Helper()
	reg := wrapper.NewRegistry()
	ll, err := locuslink.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	gos, err := geneontology.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	om, err := omim.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []wrapper.Wrapper{wrapper.NewLocusLink(ll), wrapper.NewGeneOntology(gos), wrapper.NewOMIM(om)} {
		if err := reg.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, gl, opts)
}

func geneSymbols(r *lorel.Result, edge string) []string {
	var out []string
	for _, oid := range r.Graph.Children(r.Answer, edge) {
		out = append(out, r.Graph.StringUnder(oid, "Symbol"))
	}
	return out
}

func TestSimpleGeneQuery(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	g := &c.Genes[0]
	res, stats, err := m.QueryString(
		`select G from ANNODA-GML.Gene G where G.Symbol = "` + g.Symbol + `"`)
	if err != nil {
		t.Fatal(err)
	}
	syms := geneSymbols(res, "G")
	if len(syms) != 1 || syms[0] != g.Symbol {
		t.Fatalf("symbols = %v, want [%s]", syms, g.Symbol)
	}
	// Pruning: only LocusLink participates in a pure-Gene query.
	if len(stats.SourcesQueried) != 1 || stats.SourcesQueried[0] != "LocusLink" {
		t.Errorf("queried = %v", stats.SourcesQueried)
	}
	if len(stats.SourcesPruned) != 2 {
		t.Errorf("pruned = %v", stats.SourcesPruned)
	}
	// Pushdown kicked in: kept < fetched at LocusLink.
	if stats.Kept["LocusLink"] >= stats.Fetched["LocusLink"] {
		t.Errorf("pushdown ineffective: kept %d of %d", stats.Kept["LocusLink"], stats.Fetched["LocusLink"])
	}
}

func TestFigure5bQueryMatchesGroundTruth(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	// "Find a set of LocusLink genes, which are annotated with some GO
	// functions, but not associated with some OMIM disease."
	res, stats, err := m.QueryString(
		`select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`)
	if err != nil {
		t.Fatal(err)
	}
	var gotIDs []int
	for _, oid := range res.Graph.Children(res.Answer, "G") {
		if id, ok := res.Graph.IntUnder(oid, "GeneID"); ok {
			gotIDs = append(gotIDs, int(id))
		}
	}
	want := c.GenesWithGoButNotOMIM()
	if len(gotIDs) != len(want) {
		t.Fatalf("got %d genes, ground truth %d\nstats:\n%s", len(gotIDs), len(want), stats.String())
	}
	wantSet := map[int]bool{}
	for _, id := range want {
		wantSet[id] = true
	}
	for _, id := range gotIDs {
		if !wantSet[id] {
			t.Errorf("gene %d not in ground truth", id)
		}
	}
	// All three sources participate.
	if len(stats.SourcesQueried) != 3 {
		t.Errorf("queried = %v", stats.SourcesQueried)
	}
}

func TestReconciliationPolicies(t *testing.T) {
	c := corpus()
	// Find a conflicting gene whose OMIM record encodes a different band
	// and is that record's first locus.
	var target *datagen.Gene
	for _, id := range c.ConflictingGenes() {
		g := c.GeneByID(id)
		for _, mim := range g.Diseases {
			d := c.DiseaseByMIM(mim)
			if len(d.Loci) > 0 && d.Loci[0] == id {
				target = g
			}
		}
	}
	if target == nil {
		t.Skip("corpus has no first-locus conflicting gene")
	}
	query := `select G from ANNODA-GML.Gene G where G.Symbol = "` + target.Symbol + `" and exists G.Disease`

	// PreferPrimary: LocusLink's position wins.
	m := manager(t, c, Options{Policy: PolicyPreferPrimary})
	res, stats, err := m.QueryString(query)
	if err != nil {
		t.Fatal(err)
	}
	gs := res.Graph.Children(res.Answer, "G")
	if len(gs) != 1 {
		t.Fatalf("%d answers", len(gs))
	}
	if got := res.Graph.StringUnder(gs[0], "Position"); got != target.Position {
		t.Errorf("prefer-primary position = %q, want %q", got, target.Position)
	}
	found := false
	for _, cf := range stats.Conflicts {
		if cf.Label == "Position" && cf.EntityKey == gml.CanonicalSymbol(target.Symbol) {
			found = true
			if cf.Winner.Source != "LocusLink" {
				t.Errorf("winner source = %s", cf.Winner.Source)
			}
		}
	}
	if !found {
		t.Errorf("position conflict not recorded; conflicts: %v", stats.Conflicts)
	}

	// Union: both positions present.
	mu := manager(t, c, Options{Policy: PolicyUnion})
	resU, _, err := mu.QueryString(query)
	if err != nil {
		t.Fatal(err)
	}
	gsU := resU.Graph.Children(resU.Answer, "G")
	if len(gsU) != 1 {
		t.Fatalf("%d union answers", len(gsU))
	}
	if n := len(resU.Graph.Children(gsU[0], "Position")); n < 2 {
		t.Errorf("union kept %d positions, want >= 2", n)
	}
}

func TestOrganismCanonicalizationAvoidsFalseConflicts(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	// Query touching annotations so GO's "human"-style organisms flow in.
	_, stats, err := m.QueryString(
		`select G from ANNODA-GML.Gene G where exists G.Annotation`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range stats.Conflicts {
		if cf.Label == "Organism" {
			t.Errorf("organism conflict should have been normalized away: %s", cf.String())
		}
	}
}

func TestAblationTogglesChangeWork(t *testing.T) {
	c := corpus()
	q := `select G from ANNODA-GML.Gene G where G.Symbol like "A%"`

	base := manager(t, c, Options{})
	resBase, sBase, err := base.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	noPush := manager(t, c, Options{DisablePushdown: true})
	resNP, sNP, err := noPush.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	seq := manager(t, c, Options{Workers: 1})
	resSeq, sSeq, err := seq.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	want := oem.CanonicalText(resBase.Graph, "answer", resBase.Answer)
	for name, r := range map[string]*lorel.Result{"no pushdown": resNP, "one worker": resSeq} {
		if got := oem.CanonicalText(r.Graph, "answer", r.Answer); got != want {
			t.Errorf("%s: answer differs from the default configuration", name)
		}
	}
	if sSeq.Parallel {
		t.Error("Workers: 1 stats claim parallel")
	}
	// Pushdown off: kept == fetched.
	if sNP.Kept["LocusLink"] != sNP.Fetched["LocusLink"] {
		t.Error("pushdown still active when disabled")
	}
	if sBase.Kept["LocusLink"] == sBase.Fetched["LocusLink"] {
		t.Error("filter unselective in this corpus; pushdown unobservable")
	}
}

func TestChainedFromClause(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	res, _, err := m.QueryString(
		`select A from ANNODA-GML.Gene G, G.Annotation A where exists G.Disease`)
	if err != nil {
		t.Fatal(err)
	}
	// Every answer annotation has a GoID.
	as := res.Graph.Children(res.Answer, "A")
	if len(as) == 0 {
		t.Skip("no annotated disease genes in corpus")
	}
	for _, a := range as {
		if res.Graph.StringUnder(a, "GoID") == "" {
			t.Error("annotation without GoID")
		}
	}
}

func TestDirectConceptQueryGetsFullPopulation(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	res, stats, err := m.QueryString(
		`select D from ANNODA-GML.Disease D where D.MimNumber > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Graph.Children(res.Answer, "D")); n != len(c.Diseases) {
		t.Errorf("%d diseases, want %d\n%s", n, len(c.Diseases), stats.String())
	}
}

func TestFusedGraphView(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	g, stats, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root("ANNODA-GML")
	genes := g.Children(root, "Gene")
	if len(genes) != len(c.Genes) {
		t.Fatalf("%d fused genes, want %d", len(genes), len(c.Genes))
	}
	// Spot-check link correctness against ground truth.
	checked := 0
	for _, goid := range genes {
		id, ok := g.IntUnder(goid, "GeneID")
		if !ok {
			t.Fatal("fused gene without GeneID")
		}
		truth := c.GeneByID(int(id))
		if truth == nil {
			t.Fatalf("unknown gene id %d", id)
		}
		anns := g.Children(goid, "Annotation")
		if len(anns) != len(truth.GoTerms) {
			t.Errorf("gene %d: %d annotations, want %d", id, len(anns), len(truth.GoTerms))
		}
		dis := g.Children(goid, "Disease")
		if len(dis) != len(truth.Diseases) {
			t.Errorf("gene %d: %d diseases, want %d", id, len(dis), len(truth.Diseases))
		}
		checked++
		if checked > 10 {
			break
		}
	}
	if len(stats.Conflicts) == 0 {
		t.Error("expected conflicts in a ConflictRate=0.3 corpus")
	}
}

func TestPlugInProteinSourceE11(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	// Before: Protein queries find nothing (concept unmapped).
	res, _, err := m.QueryString(`select P from ANNODA-GML.Protein P`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 0 {
		t.Fatalf("protein entities before plug-in: %d", res.Size())
	}
	// Plug in at runtime.
	pd, err := protdb.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	pw := wrapper.NewProtDB(pd)
	if err := m.Registry().Add(pw); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Global().PlugIn(pw); err != nil {
		t.Fatal(err)
	}
	res2, _, err := m.QueryString(`select P from ANNODA-GML.Protein P`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Size() != pd.Len() {
		t.Fatalf("%d proteins after plug-in, want %d", res2.Size(), pd.Len())
	}
	// Genes now link to proteins.
	res3, _, err := m.QueryString(
		`select G from ANNODA-GML.Gene G where exists G.Protein`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Size() == 0 {
		t.Error("no genes linked to proteins after plug-in")
	}
}

func TestFreshnessAfterSourceUpdate(t *testing.T) {
	c := corpus()
	reg := wrapper.NewRegistry()
	ll, _ := locuslink.Load(c)
	gos, _ := geneontology.Load(c)
	om, _ := omim.Load(c)
	llw := wrapper.NewLocusLink(ll)
	_ = reg.Add(llw)
	_ = reg.Add(wrapper.NewGeneOntology(gos))
	_ = reg.Add(wrapper.NewOMIM(om))
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(reg, gl, Options{})
	target := c.Genes[0]
	q := `select G from ANNODA-GML.Gene G where G.Symbol = "ZZUPDATED1"`
	res, _, _ := m.QueryString(q)
	if res.Size() != 0 {
		t.Fatal("updated symbol present before update")
	}
	if err := ll.Update(target.LocusID, func(l *locuslink.Locus) { l.Symbol = "ZZUPDATED1" }); err != nil {
		t.Fatal(err)
	}
	llw.Refresh()
	res2, _, err := m.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Size() != 1 {
		t.Errorf("federated query stale after source update: %d hits", res2.Size())
	}
}

func TestBadQueries(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	if _, _, err := m.QueryString(`select X from Unknown.Gene X`); err == nil {
		t.Error("unknown base accepted")
	}
	if _, _, err := m.QueryString(`not a query`); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStatsString(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	_, stats, err := m.QueryString(`select G from ANNODA-GML.Gene G`)
	if err != nil {
		t.Fatal(err)
	}
	out := stats.String()
	for _, want := range []string{"sources queried", "LocusLink", "conflicts reconciled"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyPreferPrimary.String() != "prefer-primary" ||
		PolicyMajority.String() != "majority" ||
		PolicyUnion.String() != "union" {
		t.Error("policy names wrong")
	}
}

// TestPushdownFallbackCounted: a pushed-down predicate that errors at the
// source must fall back to keeping the entity — and be counted, both on the
// population and in the aggregated Stats.
func TestPushdownFallbackCounted(t *testing.T) {
	m := manager(t, corpus(), Options{})
	w := m.Registry().Get("LocusLink")
	mp := m.Global().MappingFor("LocusLink")
	if w == nil || mp == nil {
		t.Fatal("LocusLink not registered/mapped")
	}
	// The condition's path base is a variable that is never bound in the
	// per-entity environment, so evaluation fails for every entity.
	bad := lorel.ExistsCond{P: lorel.Path{Base: "NoSuchVar", Steps: []lorel.Step{lorel.LabelStep{Name: "Symbol"}}}}

	pop, err := m.fetchOne(w, mp, []pushGroup{{v: "G", conds: []lorel.Cond{bad}}}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	fetched := pop.fetchedCount
	if fetched == 0 {
		t.Fatal("no entities fetched")
	}
	if len(pop.entities) != fetched {
		t.Fatalf("fallback dropped entities: kept %d of %d", len(pop.entities), fetched)
	}
	if pop.fallbacks != fetched {
		t.Fatalf("fallbacks = %d, want one per entity (%d)", pop.fallbacks, fetched)
	}

	// The count must surface through fetch into Stats.PushdownFallbacks.
	an := &analysis{
		fromConcepts: map[string]string{"G": "Gene"},
		needed:       map[string]bool{"Gene": true},
		pushdown:     map[string][]lorel.Cond{"G": {bad}},
	}
	stats := &Stats{Fetched: map[string]int{}, Kept: map[string]int{}}
	if _, err := m.fetch(an, stats, false, nil); err != nil {
		t.Fatal(err)
	}
	if stats.PushdownFallbacks != fetched {
		t.Fatalf("Stats.PushdownFallbacks = %d, want %d", stats.PushdownFallbacks, fetched)
	}
	// A healthy pushdown records zero fallbacks.
	_, healthy, err := m.QueryString(`select G from ANNODA-GML.Gene G where G.Symbol like "A%"`)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.PushdownFallbacks != 0 {
		t.Fatalf("healthy pushdown recorded %d fallbacks", healthy.PushdownFallbacks)
	}
}
