package mediator

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/lorel"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/sources/protdb"
	"repro/internal/wrapper"
)

// liveTranslations returns the memo's live entries by source.
func liveTranslations(m *Manager) map[string]*translation {
	m.translations.mu.Lock()
	defer m.translations.mu.Unlock()
	out := map[string]*translation{}
	for source, sl := range m.translations.slots {
		if tl := sl.cur.Load(); tl != nil {
			out[source] = tl
		}
	}
	return out
}

// assertOneLivePerSource checks the memo invariant: every live entry is the
// translation of its source's current model under its current mapping, so
// no second (older) copy of any source is reachable through the memo.
func assertOneLivePerSource(t *testing.T, m *Manager) {
	t.Helper()
	for source, tl := range liveTranslations(m) {
		w := m.reg.Get(source)
		if w == nil {
			t.Errorf("memo holds a translation of unregistered source %s", source)
			continue
		}
		model, err := w.Model()
		if err != nil {
			t.Fatal(err)
		}
		if tl.model != model {
			t.Errorf("%s: memo entry was translated from a model the wrapper no longer serves", source)
		}
		if tl.mapping != m.gl.MappingFor(source) {
			t.Errorf("%s: memo entry was translated under a mapping no longer in force", source)
		}
		if !tl.graph.Frozen() {
			t.Errorf("%s: memoized population is not frozen", source)
		}
	}
}

func translateCount(m *Manager, source, outcome string) int64 {
	return m.Metrics().Value("annoda_translate_total", source, outcome)
}

func answerText(t testing.TB, m *Manager, q string) string {
	t.Helper()
	res, _, err := m.QueryString(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return oem.CanonicalText(res.Graph, "answer", res.Answer)
}

// referencePopulations is the pre-memo fetch, kept as the test reference:
// every entity of every needed source goes through plain
// gml.TranslateEntity into a private per-query graph, and an entity
// survives pushdown when its concept is unfiltered or some variable's
// conjuncts all hold for it.
func referencePopulations(t testing.TB, m *Manager, an *analysis) []*population {
	t.Helper()
	var pops []*population
	for _, w := range m.reg.All() {
		mp := m.gl.MappingFor(w.Name())
		if mp == nil || !an.needs(mp.Concept) {
			continue
		}
		src, err := w.Model()
		if err != nil {
			t.Fatal(err)
		}
		var vars []string
		filtered := false
		for v, c := range an.fromConcepts {
			if c == mp.Concept {
				vars = append(vars, v)
			}
		}
		if len(vars) > 0 {
			filtered = true
			for _, v := range vars {
				if len(an.pushdown[v]) == 0 {
					filtered = false
				}
			}
		}
		pop := &population{source: w.Name(), concept: mp.Concept, graph: oem.NewGraph()}
		for _, e := range src.Children(src.Root(w.Name()), mp.Entity) {
			pop.fetchedCount++
			te, err := gml.TranslateEntity(pop.graph, src, e, mp)
			if err != nil {
				t.Fatal(err)
			}
			keep := !filtered
			for _, v := range vars {
				if keep {
					break
				}
				keep = true
				for _, c := range an.pushdown[v] {
					if ok, err := lorel.EvalCond(pop.graph, map[string]oem.OID{v: te}, c); err == nil && !ok {
						keep = false
						break
					}
				}
			}
			if keep {
				pop.entities = append(pop.entities, te)
			}
		}
		pops = append(pops, pop)
	}
	return pops
}

// referenceFused fuses the reference populations for an analysis.
func referenceFused(t testing.TB, m *Manager, an *analysis) *oem.Graph {
	t.Helper()
	stats := &Stats{Fetched: map[string]int{}, Kept: map[string]int{}}
	fused, err := m.fuseInto(an, referencePopulations(t, m, an), stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fused
}

// referenceAnswer answers q through the reference fetch, the production
// fusion and a freshly compiled plan.
func referenceAnswer(t testing.TB, m *Manager, src string) string {
	t.Helper()
	q, err := lorel.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	an, err := m.analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lorel.Eval(referenceFused(t, m, an), q)
	if err != nil {
		t.Fatal(err)
	}
	return oem.CanonicalText(res.Graph, "answer", res.Answer)
}

func fusedText(t testing.TB, m *Manager) string {
	t.Helper()
	g, _, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	return oem.CanonicalText(g, "ANNODA-GML", g.Root("ANNODA-GML"))
}

// memoEqualityQueries covers the pushdown route (point lookups, a like
// ask), a pruned pipeline query, whole gene subtrees over every source, and
// a direct link-concept query.
func memoEqualityQueries(c *datagen.Corpus) []string {
	g := c.Genes[len(c.Genes)/3]
	return []string{
		fmt.Sprintf(`select G from ANNODA-GML.Gene G where G.Symbol = %q`, g.Symbol),
		fmt.Sprintf(`select G.Symbol from ANNODA-GML.Gene G where G.GeneID = %d and exists G.Annotation`, g.LocusID),
		`select G.Symbol from ANNODA-GML.Gene G where G.Symbol like "A%" and exists G.Annotation and not exists G.Disease`,
		`select G.Description from ANNODA-GML.Gene G where exists G.Annotation`,
		`select G from ANNODA-GML.Gene G where exists G.Annotation and exists G.Disease`,
		`select D from ANNODA-GML.Disease D where D.Title like "%a%"`,
	}
}

// TestTranslationMemoByteEquality: the memo is exact by construction, and
// this pins it. Every query's answer and the full fused graph are byte-equal
// under CanonicalText between the per-query reference translation, a cold
// memo and a warm one — with the cache off (every call is a per-query fetch
// that reads or creates the memo) and on (pushdown queries create it, epoch
// builds read it but never create it) — for all three policies on both
// fusion paths (a small corpus under the default and the lowered gate), and
// for the server's configuration at the benchmark's 1k genes, where every
// multi-source fetch already crosses the 2048-entity gate into fuseParallel.
func TestTranslationMemoByteEquality(t *testing.T) {
	small := datagen.Generate(datagen.Config{Seed: 42, Genes: 120, GoTerms: 60, Diseases: 50, ConflictRate: 0.3, MissingRate: 0.15})
	for _, policy := range []Policy{PolicyPreferPrimary, PolicyMajority, PolicyUnion} {
		policy := policy
		t.Run(fmt.Sprintf("sequential/%v", policy), func(t *testing.T) {
			assertMemoByteEquality(t, small, policy, false, true, false)
		})
		t.Run(fmt.Sprintf("parallel/%v", policy), func(t *testing.T) {
			forceParallelFuse(t)
			assertMemoByteEquality(t, small, policy, true, true, false)
		})
	}
	t.Run("1k", func(t *testing.T) {
		cfg := datagen.DefaultConfig()
		cfg.Seed = 7
		assertMemoByteEquality(t, datagen.Generate(cfg), PolicyPreferPrimary, true, false)
	})
}

// assertMemoByteEquality runs the comparison once per disableCache value.
func assertMemoByteEquality(t *testing.T, c *datagen.Corpus, policy Policy, parallelFuse bool, disableCache ...bool) {
	queries := memoEqualityQueries(c)
	// Workers pinned so the entity gate, not the CI box's core count,
	// decides which fusion path runs.
	ref := manager(t, c, Options{Policy: policy, DisableCache: true, Workers: 4})
	if got := ref.parallelFuseEligible(referencePopulations(t, ref, everything())); got != parallelFuse {
		t.Fatalf("full fusion takes the parallel path: %v, this case is meant to cover: %v", got, parallelFuse)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = referenceAnswer(t, ref, q)
	}
	wantFused := oem.CanonicalText(referenceFused(t, ref, everything()), "ANNODA-GML", 1)
	if live := liveTranslations(ref); len(live) != 0 {
		t.Fatalf("the reference path touched the memo: %d live entries", len(live))
	}

	for _, off := range disableCache {
		opts := Options{Policy: policy, DisableCache: off, Workers: 4}
		m := manager(t, c, opts)
		for _, round := range []string{"cold", "warm"} {
			for i, q := range queries {
				if got := answerText(t, m, q); got != want[i] {
					t.Errorf("cache=%v memo %s: %s\n--- memo ---\n%s--- reference ---\n%s",
						!opts.DisableCache, round, q, clip(got), clip(want[i]))
				}
			}
			if got := fusedText(t, m); got != wantFused {
				t.Errorf("cache=%v memo %s: FusedGraph diverges from the reference fusion", !opts.DisableCache, round)
			}
			// Round two recomputes everything over the memo round one
			// left: drop the answers and the epoch.
			m.InvalidateCache()
			m.epoch.Store(nil)
		}
		if n := len(liveTranslations(m)); n != 3 {
			t.Errorf("cache=%v: %d live translations after both rounds, want one per source", !opts.DisableCache, n)
		}
		assertOneLivePerSource(t, m)
		for _, source := range []string{"LocusLink", "GO", "OMIM"} {
			if translateCount(m, source, translationMemo) == 0 {
				t.Errorf("cache=%v: the warm round never read %s from the memo", !opts.DisableCache, source)
			}
		}
	}
}

// TestTranslationSharesStructure: one remap for the whole build keeps the
// GO Term DAG single in the memoized population, while an entity imported
// out of it is the same subgraph plain TranslateEntity builds.
func TestTranslationSharesStructure(t *testing.T) {
	m := manager(t, corpus(), Options{})
	w := m.reg.Get("GO")
	mp := m.gl.MappingFor("GO")
	src, err := w.Model()
	if err != nil {
		t.Fatal(err)
	}
	tl, err := translateSource("GO", mp, src)
	if err != nil {
		t.Fatal(err)
	}
	private := oem.NewGraph()
	for i, e := range src.Children(src.Root("GO"), mp.Entity) {
		te, err := gml.TranslateEntity(private, src, e, mp)
		if err != nil {
			t.Fatal(err)
		}
		out := oem.NewGraph()
		imported, err := out.Import(tl.graph, tl.entities[i])
		if err != nil {
			t.Fatal(err)
		}
		ref := oem.NewGraph()
		refRoot, err := ref.Import(private, te)
		if err != nil {
			t.Fatal(err)
		}
		// TextString prints oids and reference-only repeats, so equality
		// here is equality of structure, sharing and allocation order.
		if got, want := oem.TextString(out, "Annotation", imported), oem.TextString(ref, "Annotation", refRoot); got != want {
			t.Fatalf("entity %d imported from the shared population differs from its private translation\n--- shared ---\n%s--- private ---\n%s", i, got, want)
		}
	}
	if tl.graph.Len() >= private.Len() {
		t.Errorf("shared population has %d objects, per-entity translation %d: the Term closure was not shared", tl.graph.Len(), private.Len())
	}
}

// TestPushdownPerVariable is the regression test for the merged-conjunct
// bug: conjuncts pushed for different variables of one concept were ANDed
// onto every entity, so a self-join lost the bindings of the other
// variable. Answers must not depend on whether pushdown ran.
func TestPushdownPerVariable(t *testing.T) {
	c := corpus()
	x, y := c.Genes[3].Symbol, c.Genes[17].Symbol
	queries := []string{
		fmt.Sprintf(`select H.GeneID from ANNODA-GML.Gene G, ANNODA-GML.Gene H where G.Symbol = %q and H.GeneID > 0`, x),
		fmt.Sprintf(`select H.GeneID from ANNODA-GML.Gene G, ANNODA-GML.Gene H where G.Symbol = %q and H.Symbol = %q`, x, y),
		// H carries no pushed conjunct at all: nothing may be filtered.
		fmt.Sprintf(`select H.GeneID from ANNODA-GML.Gene G, ANNODA-GML.Gene H where G.Symbol = %q`, x),
	}
	wantAnswers := []int{len(c.Genes), 1, len(c.Genes)}
	plain := manager(t, c, Options{DisablePushdown: true, DisableCache: true})
	for i, q := range queries {
		want := answerText(t, plain, q)
		if n := strings.Count(want, "GeneID integer"); n != wantAnswers[i] {
			t.Fatalf("%s: the unpushed reference has %d answers, want %d", q, n, wantAnswers[i])
		}
		for name, opts := range map[string]Options{
			"default":         {},
			"DisablePushdown": {DisablePushdown: true},
			"DisableCache":    {DisableCache: true},
		} {
			if got := answerText(t, manager(t, c, opts), q); got != want {
				t.Errorf("%s: %s answer diverges from the unpushed one\n--- got ---\n%s--- want ---\n%s", name, q, clip(got), clip(want))
			}
		}
	}
	// The two-sided query still filters at the source: only the entities
	// some variable can bind survive the fetch.
	_, stats, err := manager(t, c, Options{}).QueryString(queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PushdownUsed || stats.Kept["LocusLink"] != 2 {
		t.Errorf("two-variable pushdown kept %d of %d loci (pushdown used: %v), want the 2 the variables can bind",
			stats.Kept["LocusLink"], stats.Fetched["LocusLink"], stats.PushdownUsed)
	}
}

// TestTranslationMemoInvalidation: a refresh hands back a new model graph,
// so the next pushdown query re-translates, shows the edit, and leaves the
// old entry unreachable; unrelated sources keep theirs.
func TestTranslationMemoInvalidation(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	sym := c.Genes[45].Symbol
	q := fmt.Sprintf(`select G.Description from ANNODA-GML.Gene G where G.Symbol = %q and (exists G.Annotation or not exists G.Annotation)`, sym)
	_, stats, err := m.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PushdownUsed || stats.Translation["LocusLink"] != translationBuilt || stats.Translation["GO"] != translationBuilt {
		t.Fatalf("first pushdown query: pushdown %v, translation %v; want both sources built", stats.PushdownUsed, stats.Translation)
	}
	before := liveTranslations(m)
	if before["LocusLink"] == nil || before["GO"] == nil {
		t.Fatalf("memo after first query = %v, want LocusLink and GO", before)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(before["LocusLink"], func(*translation) { close(collected) })
	oldGO := before["GO"]
	before = nil

	corpusMu.Lock()
	c.Genes[45].Description = "edited after the memo was built"
	c.Genes[45].LLMissingDesc = false
	corpusMu.Unlock()
	refresh(t, m, "LocusLink")

	res, stats, err := m.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := oem.CanonicalText(res.Graph, "answer", res.Answer); !strings.Contains(got, "edited after the memo was built") {
		t.Errorf("pushdown query after the refresh does not show the edit:\n%s", got)
	}
	if stats.Translation["LocusLink"] != translationBuilt || stats.Translation["GO"] != translationMemo {
		t.Errorf("translation after refreshing LocusLink = %v, want LocusLink built and GO memo", stats.Translation)
	}
	after := liveTranslations(m)
	if after["GO"] != oldGO {
		t.Error("refreshing LocusLink replaced GO's translation")
	}
	assertOneLivePerSource(t, m)
	after = nil
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Millisecond):
			if i < 300 {
				continue
			}
			t.Error("the pre-refresh LocusLink translation is still reachable after its replacement was built")
		}
		break
	}
	if got := m.Metrics().Value("annoda_translated_objects", "LocusLink"); got != int64(liveTranslations(m)["LocusLink"].graph.Len()) {
		t.Errorf("annoda_translated_objects{LocusLink} = %d, live population has %d objects", got, liveTranslations(m)["LocusLink"].graph.Len())
	}
}

// TestTranslationMemoPlugInUnplug: a mapping replaced by Unplug+PlugIn is a
// different mapping pointer, so the entry built under the old one is
// dropped at the next fetch and rebuilt under the new; an unplugged or
// unregistered source keeps nothing.
func TestTranslationMemoPlugInUnplug(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	pd, err := protdb.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	pw := wrapper.NewProtDB(pd)
	if err := m.reg.Add(pw); err != nil {
		t.Fatal(err)
	}
	mp1, err := m.gl.PlugIn(pw)
	if err != nil {
		t.Fatal(err)
	}
	m.InvalidateCache()
	withProtein := fmt.Sprintf(`select G.Symbol from ANNODA-GML.Gene G where G.Symbol = %q and (exists G.Protein or not exists G.Protein)`, c.Genes[5].Symbol)
	geneOnly := fmt.Sprintf(`select G.Symbol from ANNODA-GML.Gene G where G.Symbol = %q`, c.Genes[5].Symbol)

	if _, _, err := m.QueryString(withProtein); err != nil {
		t.Fatal(err)
	}
	if tl := liveTranslations(m)["ProtDB"]; tl == nil || tl.mapping != mp1 {
		t.Fatalf("ProtDB translation after plug-in = %v, want one under the plug-in's mapping", tl)
	}

	m.gl.Unplug("ProtDB")
	m.InvalidateCache()
	if _, _, err := m.QueryString(geneOnly); err != nil {
		t.Fatal(err)
	}
	if tl := liveTranslations(m)["ProtDB"]; tl != nil {
		t.Error("ProtDB translation survived Unplug")
	}
	if got := m.Metrics().Value("annoda_translated_objects", "ProtDB"); got != 0 {
		t.Errorf("annoda_translated_objects{ProtDB} = %d after Unplug, want 0", got)
	}

	mp2, err := m.gl.PlugIn(pw)
	if err != nil {
		t.Fatal(err)
	}
	if mp2 == mp1 {
		t.Fatal("re-plugging returned the old mapping pointer; the test cannot tell the entries apart")
	}
	m.InvalidateCache()
	_, stats, err := m.QueryString(withProtein)
	if err != nil {
		t.Fatal(err)
	}
	if tl := liveTranslations(m)["ProtDB"]; tl == nil || tl.mapping != mp2 || stats.Translation["ProtDB"] != translationBuilt {
		t.Errorf("ProtDB after re-plug: entry %v, outcome %q; want a fresh build under the new mapping", tl, stats.Translation["ProtDB"])
	}
	assertOneLivePerSource(t, m)

	m.gl.Unplug("ProtDB")
	m.reg.Remove("ProtDB")
	m.InvalidateCache()
	if _, _, err := m.QueryString(geneOnly); err != nil {
		t.Fatal(err)
	}
	if tl := liveTranslations(m)["ProtDB"]; tl != nil {
		t.Error("ProtDB translation survived unregistering the source")
	}
	assertOneLivePerSource(t, m)
}

// corruptingWrapper serves, while bad is set, a copy of the real model with
// a dangling reference under one entity's nested object — a model that
// loads and maps fine but cannot be translated.
type corruptingWrapper struct {
	wrapper.Wrapper
	entity, nested string
	bad            atomic.Bool
}

func (cw *corruptingWrapper) Model() (*oem.Graph, error) {
	g, err := cw.Wrapper.Model()
	if err != nil || !cw.bad.Load() {
		return g, err
	}
	cl := g.Clone()
	for _, e := range cl.Children(cl.Root(cw.Name()), cw.entity) {
		if nested := cl.Child(e, cw.nested); nested != 0 {
			return cl, cl.AddRef(nested, "Broken", oem.OID(1)<<40)
		}
	}
	return nil, fmt.Errorf("corruptingWrapper: no %s.%s to corrupt", cw.entity, cw.nested)
}

// TestTranslationFailureNotMemoized: a build that fails stores nothing, and
// the next query translates again.
func TestTranslationFailureNotMemoized(t *testing.T) {
	c := corpus()
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
	cw := &corruptingWrapper{Wrapper: wrapper.NewLocusLink(ll), entity: "Locus", nested: "Links"}
	reg := wrapper.NewRegistry()
	for _, w := range []wrapper.Wrapper{cw, wrapper.NewGeneOntology(gos), wrapper.NewOMIM(om)} {
		if err := reg.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(reg, gl, Options{})
	q := fmt.Sprintf(`select G from ANNODA-GML.Gene G where G.Symbol = %q`, c.Genes[9].Symbol)

	cw.bad.Store(true)
	if _, _, err := m.QueryString(q); err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("query over an untranslatable model: err = %v, want the import failure", err)
	}
	if tl := liveTranslations(m)["LocusLink"]; tl != nil {
		t.Error("a failed translation was memoized")
	}
	if n := translateCount(m, "LocusLink", translationBuilt); n != 0 {
		t.Errorf("annoda_translate_total{LocusLink,built} = %d after a failed build, want 0", n)
	}

	cw.bad.Store(false)
	res, stats, err := m.QueryString(q)
	if err != nil {
		t.Fatalf("query after the model healed: %v", err)
	}
	if res.Size() != 1 || stats.Translation["LocusLink"] != translationBuilt {
		t.Errorf("retry: %d answers, translation %q; want 1 answer from a fresh build", res.Size(), stats.Translation["LocusLink"])
	}
	assertOneLivePerSource(t, m)
}

// TestTranslationMemoRace runs pushdown queries from several goroutines
// across repeated refreshes of the source they filter: builds, memo reads
// and replacements interleave under the race detector, every answer is a
// whole pre- or post-edit world, and the memo ends with one current entry
// per source.
func TestTranslationMemoRace(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{DisableCache: true})
	const edits = 6
	queries := make([]string, 4)
	for i := range queries {
		queries[i] = fmt.Sprintf(`select G.Description from ANNODA-GML.Gene G where G.Symbol = %q and (exists G.Annotation or exists G.Disease or G.GeneID > 0)`, c.Genes[40+i].Symbol)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := m.QueryString(q)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Size() != 1 {
					t.Errorf("%s: %d answers mid-refresh, want 1", q, res.Size())
					return
				}
			}
		}(queries[i])
	}
	for r := 0; r < edits; r++ {
		corpusMu.Lock()
		g := &c.Genes[40+r%len(queries)]
		g.Description, g.LLMissingDesc = fmt.Sprintf("race edit %d", r), false
		corpusMu.Unlock()
		if _, err := m.RefreshSourceCtx(context.Background(), "LocusLink"); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	for i, q := range queries {
		last := -1
		for r := 0; r < edits; r++ {
			if r%len(queries) == i {
				last = r
			}
		}
		if got, want := answerText(t, m, q), fmt.Sprintf("race edit %d", last); !strings.Contains(got, want) {
			t.Errorf("%s: final answer lacks %q:\n%s", q, want, got)
		}
	}
	assertOneLivePerSource(t, m)
	assertEquivalent(t, m, c)
}

// TestTranslateObservability: the translate stage and the per-source
// counters say where a fetch's translation came from, and EXPLAIN ANALYZE
// prints one translation line per fetched source.
func TestTranslateObservability(t *testing.T) {
	c := corpus()
	o := obs.New(obs.Config{})
	m := manager(t, c, Options{Obs: o})
	q := fmt.Sprintf(`select G.Symbol from ANNODA-GML.Gene G where G.Symbol = %q and exists G.Annotation`, c.Genes[2].Symbol)
	for i, want := range []string{translationBuilt, translationMemo} {
		e, err := m.ExplainString(q, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, source := range []string{"LocusLink", "GO"} {
			if got := e.Analyze.Translation[source]; got != want {
				t.Errorf("analyze %d: translation[%s] = %q, want %q", i, source, got, want)
			}
			if line := fmt.Sprintf("%-12s translation: %s\n", source, want); !strings.Contains(e.Format(), line) {
				t.Errorf("analyze %d: EXPLAIN ANALYZE lacks %q:\n%s", i, line, e.Format())
			}
		}
		if _, ok := e.Analyze.Translation["OMIM"]; ok {
			t.Errorf("analyze %d: pruned source OMIM reports a translation", i)
		}
	}
	for _, source := range []string{"LocusLink", "GO"} {
		if b, mm := translateCount(m, source, translationBuilt), translateCount(m, source, translationMemo); b != 1 || mm != 1 {
			t.Errorf("annoda_translate_total{%s} = %d built / %d memo, want 1 / 1", source, b, mm)
		}
		if got, want := m.Metrics().Value("annoda_translated_objects", source), int64(liveTranslations(m)[source].graph.Len()); got != want || got == 0 {
			t.Errorf("annoda_translated_objects{%s} = %d, want the population's %d objects", source, got, want)
		}
	}

	// A traced query records one translate span per fetched source, noted
	// with the source and the outcome.
	if _, _, err := m.QueryString(q + ` and G.GeneID > 0`); err != nil {
		t.Fatal(err)
	}
	notes := map[string]bool{}
	for _, tv := range o.Tracer.Recent() {
		for _, sp := range tv.Spans {
			if sp.Stage == obs.StageTranslate {
				notes[sp.Note] = true
			}
		}
	}
	for _, want := range []string{"LocusLink memo", "GO memo"} {
		if !notes[want] {
			t.Errorf("no translate span noted %q in the recent traces (have %v)", want, notes)
		}
	}
}

// BenchmarkFetchPushdown times one computed point lookup — fetch over the
// warm memo, fuse, eval — with the result cache off so every iteration
// computes, at the two corpus scales the benchmark harness serves.
func BenchmarkFetchPushdown(b *testing.B) {
	for _, genes := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("%dk", genes/1000), func(b *testing.B) {
			cfg := datagen.DefaultConfig()
			cfg.Genes = genes
			c := datagen.Generate(cfg)
			m := manager(b, c, Options{DisableCache: true})
			query := func(i int) {
				q := fmt.Sprintf(`select G from ANNODA-GML.Gene G where G.Symbol = %q`, c.Genes[i*7919%len(c.Genes)].Symbol)
				res, stats, err := m.QueryString(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Size() != 1 || !stats.PushdownUsed {
					b.Fatalf("%s: %d answers, pushdown %v", q, res.Size(), stats.PushdownUsed)
				}
			}
			query(0) // builds the memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(i + 1)
			}
		})
	}
}

// BenchmarkTranslateGO times translating the 1k corpus's GO source — the
// one whose annotations share a Term DAG — the way the memo does, and
// reports the population's object count next to what one private Term
// closure per annotation (plain TranslateEntity) comes to, plus the heap
// the frozen population retains.
func BenchmarkTranslateGO(b *testing.B) {
	m := manager(b, datagen.Generate(datagen.DefaultConfig()), Options{})
	mp := m.gl.MappingFor("GO")
	src, err := m.reg.Get("GO").Model()
	if err != nil {
		b.Fatal(err)
	}
	private := oem.NewGraph()
	for _, e := range src.Children(src.Root("GO"), mp.Entity) {
		if _, err := gml.TranslateEntity(private, src, e, mp); err != nil {
			b.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tl, err := translateSource("GO", mp, src)
	if err != nil {
		b.Fatal(err)
	}
	tl.graph.FreezeUnindexed() // as the memo holds it
	retained := heap() - before
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tl, err = translateSource("GO", mp, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tl.graph.Len()), "objects")
	b.ReportMetric(float64(private.Len()), "unshared-objects")
	b.ReportMetric(float64(retained)/(1<<20), "retained-MB")
}
