package mediator

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/fused"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/sources/protdb"
)

// Adversarial fixtures for the epoch-dependent routing rule (see
// fused.World.MaskFor): federations in which the epoch must decline a pruned
// query, and refreshes that move an atom into or out of a mask.

func maskCorpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{
		Seed: 77, Genes: 240, GoTerms: 60, Diseases: 50,
		ConflictRate: 0.3, MissingRate: 0.2,
	})
}

// geneWhere returns the index (past the MDSM sampling window) of the first
// gene that has GO annotations and a ProtDB record and satisfies ok.
func geneWhere(t *testing.T, c *datagen.Corpus, ok func(*datagen.Gene) bool) int {
	t.Helper()
	pd, err := protdb.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	hasProtein := map[string]bool{}
	pd.Scan(func(p *protdb.Protein) bool {
		hasProtein[strings.ToLower(p.GeneName)] = true
		return true
	})
	for i := 40; i < len(c.Genes); i++ {
		g := &c.Genes[i]
		if len(g.GoTerms) > 0 && hasProtein[strings.ToLower(g.Symbol)] && ok(g) {
			return i
		}
	}
	t.Fatal("corpus has no such gene")
	return -1
}

func mustQuery(t *testing.T, m *Manager, src string) (string, *Stats) {
	t.Helper()
	res, st, err := m.QueryString(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return oem.CanonicalText(res.Graph, "answer", res.Answer), st
}

// TestEpochDeclinesWhenRunnerUpIsVisible: LocusLink leaves one gene's
// Organism out, so GO (Annotation) and ProtDB (Protein) both supply it and
// GO, registered first, wins. A query that prunes Annotation but names
// Protein cannot be masked — hiding GO's atom would hide the gene's organism
// altogether, while a fusion without GO shows ProtDB's — so the pipeline
// answers and the reason names the concept. Pruning both is maskable again.
func TestEpochDeclinesWhenRunnerUpIsVisible(t *testing.T) {
	c := maskCorpus()
	gi := geneWhere(t, c, func(*datagen.Gene) bool { return true })
	build := func(opts Options) *Manager {
		srcs := corpusSources(c)
		load := srcs[0].load
		srcs[0].load = func() (*oem.Graph, error) {
			g, err := load()
			if err != nil {
				return nil, err
			}
			locus := g.Children(g.Root("LocusLink"), "Locus")[gi]
			if g.RemoveRefs(locus, "Organism") != 1 {
				return nil, fmt.Errorf("locus %d had no Organism to take out", gi)
			}
			return g, nil
		}
		m := managerOver(t, srcs, opts)
		plugProt(t, m, c)
		return m
	}
	m, plain := build(Options{}), build(Options{DisableCache: true})

	const declined = `select G.Organism from ANNODA-GML.Gene G where exists G.Protein`
	got, st := mustQuery(t, m, declined)
	want, _ := mustQuery(t, plain, declined)
	if st.SnapshotUsed {
		t.Errorf("epoch answered %q; Annotation's atom has a visible Protein runner-up", declined)
	}
	if got != want {
		t.Errorf("declined query diverges from the uncached pipeline:\n got: %s\nwant: %s", clip(got), clip(want))
	}
	linked, _, err := plain.QueryString(`select G.GeneID from ANNODA-GML.Gene G where exists G.Protein`)
	if err != nil {
		t.Fatal(err)
	}
	if n, genes := strings.Count(want, "Organism"), linked.Size(); n != genes {
		t.Fatalf("test premise broken: %d organisms for %d protein-linked genes — the pruned fusion must show ProtDB's for gene %d", n, genes, gi)
	}
	e, err := m.ExplainString(declined, false)
	if err != nil {
		t.Fatal(err)
	}
	if e.SnapshotSafe || !strings.Contains(e.PathReason, "cannot mask Annotation") ||
		!strings.Contains(e.PathReason, "Protein") || !strings.Contains(e.PathReason, ".Organism") {
		t.Errorf("explain: safe=%v reason=%q, want a decline naming Annotation, Protein and the attribute", e.SnapshotSafe, e.PathReason)
	}

	for _, src := range []string{
		`select G.Organism from ANNODA-GML.Gene G`,                           // both hidden
		`select G.Organism from ANNODA-GML.Gene G where exists G.Annotation`, // the winner visible
	} {
		got, st := mustQuery(t, m, src)
		if want, _ := mustQuery(t, plain, src); !st.SnapshotUsed || got != want {
			t.Errorf("%s: SnapshotUsed=%v, equal=%v; want the masked epoch and the pipeline's bytes", src, st.SnapshotUsed, got == want)
		}
	}

	// A standing query the epoch declines is still admitted (the
	// epoch-independent rules pass) and pushes what a fresh Query computes.
	sub, err := m.SubscribeChanges(feed.Options{Concepts: []string{"NoSuchConcept"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const watched = `select G.Description from ANNODA-GML.Gene G where exists G.Protein`
	sq, err := m.AddStandingQuery(sub, watched)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Cancel()
	misses := metric(m, "annoda_snapshot_misses_total")
	editGene(c, editableGenes(t, c, 1)[0], "declined standing query")
	refresh(t, m, "LocusLink")
	plain.reg.Get("LocusLink").Refresh()
	evs := drainFeed(sub)
	want, _ = mustQuery(t, plain, watched)
	if len(evs) != 2 || !evs[0].Initial || evs[1].Text != want {
		t.Fatalf("standing query pushed %d events; want a baseline and one answer byte-equal to a fresh query", len(evs))
	}
	if metric(m, "annoda_snapshot_misses_total") == misses {
		t.Error("the declined standing query's re-evaluation did not go through the pipeline")
	}
}

// TestOtherPoliciesKeepThePipeline: under fused.PolicyMajority and fused.PolicyUnion a
// pruned source's contributions change which values are materialized, not
// just whose — no mask undoes that, so pruned queries keep the pipeline.
func TestOtherPoliciesKeepThePipeline(t *testing.T) {
	c := maskCorpus()
	for _, policy := range []fused.Policy{fused.PolicyMajority, fused.PolicyUnion} {
		m := fedManager(t, c, Options{Policy: policy})
		plain := fedManager(t, c, Options{Policy: policy, DisableCache: true})
		const pruned = `select G from ANNODA-GML.Gene G where exists G.Annotation`
		got, st := mustQuery(t, m, pruned)
		if want, _ := mustQuery(t, plain, pruned); st.SnapshotUsed || got != want {
			t.Errorf("%v: SnapshotUsed=%v equal=%v, want the pipeline and its bytes", policy, st.SnapshotUsed, got == want)
		}
		e, err := m.ExplainString(pruned, false)
		if err != nil {
			t.Fatal(err)
		}
		if e.SnapshotSafe || !strings.Contains(e.PathReason, policy.String()) {
			t.Errorf("%v: explain safe=%v reason=%q, want a decline naming the policy", policy, e.SnapshotSafe, e.PathReason)
		}
		const full = `select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease and exists G.Protein`
		if _, st := mustQuery(t, m, full); !st.SnapshotUsed {
			t.Errorf("%v: a query naming every concept left the epoch", policy)
		}
	}
}

// TestMaskFollowsRefreshes: refreshes move atoms into and out of the next
// epoch's mask. A ProtDB-only change to a gene ProtDB describes (LocusLink
// does not) replaces the hidden atom; the cached answer of a query that
// prunes Protein is — correctly — not invalidated, and a distinct pruned
// query on the new epoch still does not see ProtDB's value. Then LocusLink
// drops a description it used to supply, the gene turns Protein-described,
// and a standing query pruning Protein keeps pushing what a fresh Query says.
func TestMaskFollowsRefreshes(t *testing.T) {
	c := maskCorpus()
	m := fedManager(t, c, Options{})
	plain := fedManager(t, c, Options{DisableCache: true})
	refreshBoth := func(src string) *RefreshResult {
		plain.reg.Get(src).Refresh()
		return refresh(t, m, src)
	}
	const (
		cachedQ = `select G.Description from ANNODA-GML.Gene G where exists G.Annotation`
		freshQ  = `select G.Description from ANNODA-GML.Gene G where exists G.Annotation or exists G.Description`
		fullQ   = `select G.Description from ANNODA-GML.Gene G where exists G.Annotation and (exists G.Protein or exists G.Disease or exists G.Symbol)`
	)
	sub, err := m.SubscribeChanges(feed.Options{Concepts: []string{"NoSuchConcept"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sq, err := m.AddStandingQuery(sub, cachedQ)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Cancel()
	before, st := mustQuery(t, m, cachedQ)
	if !st.SnapshotUsed || fmt.Sprint(st.Masked) != "[Disease Protein]" {
		t.Fatalf("pruned query: SnapshotUsed=%v Masked=%v", st.SnapshotUsed, st.Masked)
	}
	if evs := drainFeed(sub); len(evs) != 1 || evs[0].Text != before {
		t.Fatalf("baseline: %d events, want one equal to a fresh query", len(evs))
	}

	// Step 1: ProtDB alone changes what it says about a gene only it describes.
	px := geneWhere(t, c, func(g *datagen.Gene) bool { return g.LLMissingDesc })
	corpusMu.Lock()
	c.Genes[px].Description = "PROTDB-ONLY WORDING"
	corpusMu.Unlock()
	if rr := refreshBoth("LocusLink"); rr.Upserted != 0 {
		t.Fatalf("test premise broken: LocusLink saw the edit (%+v)", rr)
	}
	if rr := refreshBoth("ProtDB"); !rr.Patched || rr.Upserted != 1 {
		t.Fatalf("ProtDB refresh: %+v, want one patched upsert", rr)
	}
	after, st := mustQuery(t, m, cachedQ)
	if !st.CacheHit || after != before {
		t.Errorf("ProtDB refresh invalidated (hit=%v) or changed the answer of a query that prunes Protein", st.CacheHit)
	}
	if want, _ := mustQuery(t, plain, cachedQ); after != want {
		t.Errorf("cached pruned answer is stale against the pipeline on the new world")
	}
	got, st := mustQuery(t, m, freshQ)
	if want, _ := mustQuery(t, plain, freshQ); !st.SnapshotUsed || got != want || strings.Contains(got, "PROTDB-ONLY") {
		t.Errorf("new epoch, pruned query: SnapshotUsed=%v equal=%v; ProtDB's new atom must be in the mask", st.SnapshotUsed, got == want)
	}
	if got, _ := mustQuery(t, m, fullQ); !strings.Contains(got, "PROTDB-ONLY") {
		t.Errorf("test premise broken: a query naming Protein does not see ProtDB's description")
	}
	if evs := drainFeed(sub); len(evs) != 0 {
		t.Errorf("standing query pruning Protein pushed %d events for a ProtDB-only change", len(evs))
	}

	// Step 2: LocusLink stops describing a gene ProtDB also describes.
	lx := geneWhere(t, c, func(g *datagen.Gene) bool { return !g.LLMissingDesc })
	corpusMu.Lock()
	lost := c.Genes[lx].Description
	c.Genes[lx].LLMissingDesc = true
	corpusMu.Unlock()
	if rr := refreshBoth("LocusLink"); !rr.Patched || rr.Upserted != 1 {
		t.Fatalf("LocusLink refresh: %+v, want one patched upsert", rr)
	}
	got, st = mustQuery(t, m, cachedQ)
	want, _ := mustQuery(t, plain, cachedQ)
	if st.CacheHit || !st.SnapshotUsed || got != want || strings.Contains(got, lost) {
		t.Errorf("after LocusLink dropped the description: hit=%v snapshot=%v equal=%v; the gene is Protein-described now and masked",
			st.CacheHit, st.SnapshotUsed, got == want)
	}
	if full, _ := mustQuery(t, m, fullQ); !strings.Contains(full, lost+" protein") {
		t.Errorf("test premise broken: the gene did not become Protein-described")
	}
	if evs := drainFeed(sub); len(evs) != 1 || evs[0].Text != want {
		t.Errorf("standing query pushed %d events, want one byte-equal to a fresh query", len(evs))
	}
}

// serverManager is the federation annoda-server serves at the given scale:
// the default corpus's three sources plus ProtDB, default options.
func serverManager(b *testing.B, genes int) *Manager {
	cfg := datagen.DefaultConfig()
	cfg.Genes = genes
	return fedManager(b, datagen.Generate(cfg), Options{})
}

// BenchmarkPrunedMiss times one computed query that names only some of the
// four concepts — the benchmark harness's lorel_pipeline class, and the
// `select G … exists G.Annotation` shape /api/ask {"include":["GO"]} sends —
// with the result cache emptied before every iteration, so each one is a
// miss on a warm epoch: plan lookup, pin, mask, masked eval, answer import.
// The epoch shape is the benchmark harness's unmasked lorel_epoch class: it
// names all four concepts, so nothing is masked.
func BenchmarkPrunedMiss(b *testing.B) {
	for _, genes := range []int{1000, 10000} {
		m := serverManager(b, genes)
		for _, shape := range []struct {
			name, q string
			masked  bool
		}{
			{"lorel", `select G.Description from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease and exists G.Links`, true},
			{"ask", `select G from ANNODA-GML.Gene G where exists G.Annotation`, true},
			{"epoch", epochShapeLorel, false},
		} {
			b.Run(fmt.Sprintf("%dk/%s", genes/1000, shape.name), func(b *testing.B) {
				query := func() {
					m.InvalidateCache()
					res, st, err := m.QueryString(shape.q)
					if err != nil {
						b.Fatal(err)
					}
					if res.Size() == 0 || !st.SnapshotUsed || st.CacheHit || (len(st.Masked) > 0) != shape.masked {
						b.Fatalf("%d answers, stats %+v: want a computed epoch evaluation, masked=%v", res.Size(), st, shape.masked)
					}
				}
				query() // builds the epoch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					query()
				}
			})
		}
	}
}

// BenchmarkFirstEval times the first evaluation of the epoch shape on a
// fresh epoch, the one that builds its postings: what the first reader after
// every refresh pays. Each iteration evaluates on a new frozen copy of the
// epoch's graph, whose posting memo is empty; making the copy is not timed.
func BenchmarkFirstEval(b *testing.B) {
	for _, genes := range []int{1000, 10000} {
		m := serverManager(b, genes)
		ep, _, err := m.pinEpoch()
		if err != nil {
			b.Fatal(err)
		}
		q, err := lorel.Parse(epochShapeLorel)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := lorel.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dk", genes/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := ep.w.Graph().Clone()
				g.Freeze()
				b.StartTimer()
				var ec lorel.EvalCounts
				if _, err := plan.EvalMasked(g, nil, &ec); err != nil {
					b.Fatal(err)
				}
				if ec.PostingsReused != 0 || ec.PostingsBuilt == 0 {
					b.Fatalf("postings %+v: want every one built", ec)
				}
			}
		})
	}
}

// TestConceptNamesLabelOnlyLinkEdges pins what label hiding rests on: no
// attribute of the global schema is named after a concept, and in the fused
// graph — nested complex children keep their source labels (Links, Term) —
// every reference so labelled leaves the root or a gene, at any depth.
func TestConceptNamesLabelOnlyLinkEdges(t *testing.T) {
	m := fedManager(t, maskCorpus(), Options{})
	for _, c := range m.gl.Concepts {
		for _, l := range c.Labels {
			if conceptNames[strings.ToLower(l.Name)] != "" {
				t.Errorf("%s.%s is named after a concept; masks hide that label", c.Name, l.Name)
			}
		}
	}
	g, _, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root("ANNODA-GML")
	linkers := map[oem.OID]bool{root: true}
	for _, gene := range g.Children(root, "Gene") {
		linkers[gene] = true
	}
	links := 0
	for _, oid := range g.OIDs() {
		for _, r := range g.Get(oid).Refs {
			if conceptNames[strings.ToLower(r.Label)] == "" {
				continue
			}
			links++
			if !linkers[oid] {
				t.Fatalf("object %d carries a nested %q reference; a mask hiding that concept would drop it from answers the pipeline keeps", oid, r.Label)
			}
		}
	}
	if links < len(linkers) {
		t.Fatalf("walked %d link edges for %d linkers; the fixture is not exercising the walk", links, len(linkers))
	}
}
