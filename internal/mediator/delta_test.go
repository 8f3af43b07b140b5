package mediator

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/gml"
	"repro/internal/match"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/wrapper"
)

// corpusMu serializes test mutations of a shared corpus against the
// wrapper rebuilds that read it (concurrent refresh tests).
var corpusMu sync.RWMutex

// swapSource is a Wrapper over a mutable corpus: every Refresh rebuilds
// the model from the corpus's current contents, so a test mutates the
// corpus and calls RefreshSourceCtx to simulate a live source update. It also
// implements delta.Source; the native changelog (a diff against the
// retained previous model) is only offered when native is set, so the
// structural-differ fallback is exercised by default.
type swapSource struct {
	name, entity string
	load         func() (*oem.Graph, error)
	native       bool

	mu      sync.Mutex
	graph   *oem.Graph
	prev    *oem.Graph
	ver     uint64
	prevVer uint64
}

func (s *swapSource) Name() string        { return s.name }
func (s *swapSource) EntityLabel() string { return s.entity }

func (s *swapSource) Model() (*oem.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.graph == nil {
		corpusMu.RLock()
		g, err := s.load()
		corpusMu.RUnlock()
		if err != nil {
			return nil, err
		}
		s.graph = g
	}
	return s.graph, nil
}

func (s *swapSource) Refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prev, s.prevVer = s.graph, s.ver
	s.graph = nil
	s.ver++
}

func (s *swapSource) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ver
}

func (s *swapSource) Changes(since uint64) (*delta.ChangeSet, bool) {
	if !s.native {
		return nil, false
	}
	s.mu.Lock()
	prev, prevVer := s.prev, s.prevVer
	s.mu.Unlock()
	if prev == nil || since != prevVer {
		return nil, false
	}
	cur, err := s.Model()
	if err != nil {
		return nil, false
	}
	cs, err := delta.Diff(prev, cur, s.name, s.entity)
	if err != nil {
		return nil, false
	}
	cs.FromVersion, cs.ToVersion = since, s.Version()
	return cs, true
}

// corpusSources are LocusLink, GO and OMIM reloading from the (live,
// mutable) corpus on every Refresh.
func corpusSources(c *datagen.Corpus) []*swapSource {
	return []*swapSource{
		{name: "LocusLink", entity: "Locus", load: func() (*oem.Graph, error) {
			db, err := locuslink.Load(c)
			if err != nil {
				return nil, err
			}
			return wrapper.NewLocusLink(db).Model()
		}},
		{name: "GO", entity: "Annotation", load: func() (*oem.Graph, error) {
			st, err := geneontology.Load(c)
			if err != nil {
				return nil, err
			}
			return wrapper.NewGeneOntology(st).Model()
		}},
		{name: "OMIM", entity: "Entry", load: func() (*oem.Graph, error) {
			st, err := omim.Load(c)
			if err != nil {
				return nil, err
			}
			return wrapper.NewOMIM(st).Model()
		}},
	}
}

// mutManager builds a manager whose three sources reload from the (live,
// mutable) corpus on every Refresh.
func mutManager(t testing.TB, c *datagen.Corpus, opts Options) *Manager {
	t.Helper()
	return managerOver(t, corpusSources(c), opts)
}

// managerOver builds a manager over the given sources, registered (and so
// prioritized) in order.
func managerOver(t testing.TB, sources []*swapSource, opts Options) *Manager {
	t.Helper()
	reg := wrapper.NewRegistry()
	for _, s := range sources {
		if err := reg.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, gl, opts)
}

// deltaEquivQueries cover the snapshot fast path (first three) and the
// per-query pipeline with pruning and pushdown (rest).
var deltaEquivQueries = []string{
	`select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`,
	`select G from ANNODA-GML.Gene G where exists G.Disease or exists G.Annotation`,
	`select G.Symbol from ANNODA-GML.Gene G where not exists G.Annotation and exists G.Disease`,
	`select G from ANNODA-GML.Gene G`,
	`select D from ANNODA-GML.Disease D`,
	`select A from ANNODA-GML.Annotation A`,
}

// assertEquivalent checks that the delta-maintained manager answers every
// battery query identically (set semantics, oid-free) to a freshly built
// uncached manager over the same corpus state.
func assertEquivalent(t *testing.T, m *Manager, c *datagen.Corpus) {
	t.Helper()
	plain := manager(t, c, Options{DisableCache: true})
	for i, src := range deltaEquivQueries {
		res, _, err := m.QueryString(src)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, src, err)
		}
		rp, _, err := plain.QueryString(src)
		if err != nil {
			t.Fatalf("query %d plain: %v", i, err)
		}
		got := oem.CanonicalText(res.Graph, "answer", res.Answer)
		want := oem.CanonicalText(rp.Graph, "answer", rp.Answer)
		if got != want {
			t.Errorf("query %d (%s): delta-maintained answer diverges from fresh build\n--- delta ---\n%s--- fresh ---\n%s",
				i, src, clip(got), clip(want))
		}
	}
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "...\n"
	}
	return s
}

// assertSnapshotTight compares the patched snapshot against a fresh full
// fusion: identical object counts (no leaked or lost objects) and a valid
// graph.
func assertSnapshotTight(t *testing.T, m *Manager, c *datagen.Corpus) {
	t.Helper()
	g, _, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("patched snapshot invalid: %v", err)
	}
	fresh := manager(t, c, Options{DisableCache: true})
	gf, _, err := fresh.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != gf.Len() {
		t.Errorf("patched snapshot has %d objects, fresh build has %d — patching leaked or lost objects",
			g.Len(), gf.Len())
	}
}

func refresh(t *testing.T, m *Manager, source string) *RefreshResult {
	t.Helper()
	rr, err := m.RefreshSourceCtx(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

const snapshotQ = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// TestRefreshSourceGeneDelta: edit a handful of gene descriptions
// (Description is a reconciled label, so the edit flows through gene
// removal, re-fusion, entity relinking and re-reconciliation) and check
// the patched snapshot answers match a fresh build exactly.
func TestRefreshSourceGeneDelta(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil { // materialize the snapshot
		t.Fatal(err)
	}
	// Mutate late-index genes so MDSM's transform-inference samples (the
	// first few entities) are untouched and fresh rebuilds map identically;
	// skip genes whose LocusLink record drops the description (editing
	// those changes nothing observable).
	corpusMu.Lock()
	edited := 0
	for i := 40; i < len(c.Genes) && edited < 5; i++ {
		if c.Genes[i].LLMissingDesc {
			continue
		}
		c.Genes[i].Description = fmt.Sprintf("edited description %d", i)
		edited++
	}
	corpusMu.Unlock()
	if edited != 5 {
		t.Fatalf("corpus too small: only %d editable genes past index 40", edited)
	}
	rr := refresh(t, m, "LocusLink")
	if rr.FullRebuild {
		t.Fatalf("small edit fell back to full rebuild: %s", rr.Reason)
	}
	if !rr.Patched {
		t.Fatal("snapshot was not patched in place")
	}
	if rr.Upserted != 5 || rr.Deleted != 5 {
		t.Errorf("delta = %d upserts / %d deletes, want 5/5 (five edited records)", rr.Upserted, rr.Deleted)
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)

	if applied, patched, rebuilds := metric(m, "annoda_deltas_applied_total"), metric(m, "annoda_entities_patched_total"), metric(m, "annoda_full_rebuilds_total"); applied != 1 || patched != 10 || rebuilds != 0 {
		t.Errorf("counters = %d applied / %d patched / %d rebuilds, want 1 delta applied, 10 entities patched", applied, patched, rebuilds)
	}
	// The edited description must be visible through the snapshot path.
	res, stats, err := m.QueryString(`select G from ANNODA-GML.Gene G where exists G.Annotation or exists G.Disease`)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SnapshotUsed {
		t.Error("post-refresh query did not use the snapshot")
	}
	found := false
	for _, oid := range res.Graph.Children(res.Answer, "G") {
		if strings.HasPrefix(res.Graph.StringUnder(oid, "Description"), "edited description") {
			found = true
			break
		}
	}
	if !found {
		t.Error("edited description not visible after incremental refresh")
	}
}

// TestRefreshSourceGeneAddRemove: a brand-new gene (with GO annotations)
// arrives and later disappears. Exercises gene creation with entity
// linking, link-entity upserts, and full gene + entity removal.
func TestRefreshSourceGeneAddRemove(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	ng := datagen.Gene{
		LocusID:      99999,
		Symbol:       "ZZZNEW1",
		Organism:     "Homo sapiens",
		Description:  "synthetic late arrival",
		Position:     "1q11",
		GoTerms:      []string{c.Terms[0].ID, c.Terms[1].ID},
		GOOrganism:   "human",
		OMIMSymbol:   "ZZZNEW1",
		OMIMPosition: "1q11",
	}
	corpusMu.Lock()
	c.Genes = append(c.Genes, ng)
	corpusMu.Unlock()
	// The gene's annotations live in GO, so both sources must refresh
	// (appending keeps the association file's earlier records stable).
	rrLL := refresh(t, m, "LocusLink")
	rrGO := refresh(t, m, "GO")
	if !rrLL.Patched || !rrGO.Patched {
		t.Fatalf("patches not applied: LocusLink=%+v GO=%+v", rrLL, rrGO)
	}
	if rrLL.Upserted != 1 || rrLL.Deleted != 0 {
		t.Errorf("LocusLink delta = %d/%d, want 1 upsert", rrLL.Upserted, rrLL.Deleted)
	}
	if rrGO.Upserted != 2 || rrGO.Deleted != 0 {
		t.Errorf("GO delta = %d/%d, want 2 upserts (two annotations)", rrGO.Upserted, rrGO.Deleted)
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)

	// The new gene must be linked to its annotations in the snapshot.
	res, _, err := m.QueryString(`select G from ANNODA-GML.Gene G where G.Symbol = "ZZZNEW1" and exists G.Annotation`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatalf("new gene not linked to its annotations (got %d answers)", res.Size())
	}

	// And now it goes away again.
	corpusMu.Lock()
	c.Genes = c.Genes[:len(c.Genes)-1]
	corpusMu.Unlock()
	rrLL = refresh(t, m, "LocusLink")
	rrGO = refresh(t, m, "GO")
	if !rrLL.Patched || !rrGO.Patched {
		t.Fatal("removal patches not applied")
	}
	if rrLL.Deleted != 1 || rrGO.Deleted != 2 {
		t.Errorf("removal deltas: LocusLink deleted %d (want 1), GO deleted %d (want 2)", rrLL.Deleted, rrGO.Deleted)
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)
}

// TestRefreshSourceDiseaseDelta: an OMIM entry changes its title and
// position, and a new entry linking an existing gene appears — link
// entities contribute reconciled attributes (Position), so both the
// entity patching and the contribution withdrawal paths run.
func TestRefreshSourceDiseaseDelta(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	// Find a late disease with at least one locus, so its Position feeds
	// reconciliation of the linked gene.
	di := -1
	for i := len(c.Diseases) - 1; i >= 10; i-- {
		if len(c.Diseases[i].Loci) > 0 {
			di = i
			break
		}
	}
	if di < 0 {
		t.Skip("corpus has no linked disease outside the sample prefix")
	}
	var target *datagen.Gene
	for i := range c.Genes {
		if c.Genes[i].LocusID == c.Diseases[di].Loci[0] {
			target = &c.Genes[i]
			break
		}
	}
	corpusMu.Lock()
	c.Diseases[di].Title = "EDITED SYNDROME"
	c.Diseases[di].Position = "9q99"
	extra := datagen.Disease{
		MIM:         999999,
		Title:       "SYNTHETIC LATE DISORDER",
		GeneSymbols: []string{target.OMIMSymbol},
		Loci:        []int{target.LocusID},
		Position:    "8q88",
		Inheritance: "autosomal dominant",
	}
	c.Diseases = append(c.Diseases, extra)
	corpusMu.Unlock()

	rr := refresh(t, m, "OMIM")
	if !rr.Patched || rr.FullRebuild {
		t.Fatalf("disease delta not patched: %+v", rr)
	}
	if rr.Upserted != 2 || rr.Deleted != 1 {
		t.Errorf("delta = %d upserts / %d deletes, want 2/1", rr.Upserted, rr.Deleted)
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)

	// The new disorder must be linked from its gene.
	res, _, err := m.QueryString(
		`select G from ANNODA-GML.Gene G where G.Symbol = "` + target.Symbol + `" and exists G.Disease`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatalf("gene %s not linked to the new disorder", target.Symbol)
	}
}

// TestRefreshSourceAnnotationDelta: the GO association file re-spells an
// organism — annotation entities change and their Organism contributions
// to genes must be re-reconciled.
func TestRefreshSourceAnnotationDelta(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	// A late gene with GO terms; change how the association file spells
	// its organism.
	gi := -1
	for i := len(c.Genes) - 1; i >= 10; i-- {
		if len(c.Genes[i].GoTerms) > 0 {
			gi = i
			break
		}
	}
	if gi < 0 {
		t.Skip("no annotated gene outside the sample prefix")
	}
	corpusMu.Lock()
	c.Genes[gi].GOOrganism = "human (edited)"
	corpusMu.Unlock()
	rr := refresh(t, m, "GO")
	if !rr.Patched || rr.FullRebuild {
		t.Fatalf("annotation delta not patched: %+v", rr)
	}
	want := len(c.Genes[gi].GoTerms)
	if rr.Upserted != want || rr.Deleted != want {
		t.Errorf("delta = %d/%d, want %d/%d (one association per term)", rr.Upserted, rr.Deleted, want, want)
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)
}

// TestRefreshReclaimsCollidingJoinKeys: two genes claim the same join
// symbol (one as its fusion key, one as an alias); the index maps it to
// the later gene. When that gene is deleted, the patch must hand the key
// back to the survivor and relink the annotations joined through it —
// exactly what a full re-fusion would produce.
func TestRefreshReclaimsCollidingJoinKeys(t *testing.T) {
	c := corpus()
	shared := "AASHAREDX1"
	keeper := datagen.Gene{
		LocusID: 88801, Symbol: shared, Organism: "Homo sapiens",
		Description: "keeper of the shared symbol", Position: "2q22",
		GoTerms: []string{c.Terms[0].ID}, GOOrganism: "human",
		OMIMSymbol: shared, OMIMPosition: "2q22",
	}
	thief := datagen.Gene{
		LocusID: 88802, Symbol: "ZZTHIEF1", Aliases: []string{shared},
		Organism: "Homo sapiens", Description: "claims the symbol by alias",
		Position: "3q33", GOOrganism: "human",
		OMIMSymbol: "ZZTHIEF1", OMIMPosition: "3q33",
	}
	corpusMu.Lock()
	c.Genes = append(c.Genes, keeper, thief)
	corpusMu.Unlock()

	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	// Registered later, the thief's alias owns bySymbol[shared]: the
	// keeper's annotation is linked to the thief, not the keeper.
	res, _, err := m.QueryString(
		`select G from ANNODA-GML.Gene G where G.Symbol = "ZZTHIEF1" and exists G.Annotation`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatalf("precondition: alias collision should route the annotation to the thief (got %d)", res.Size())
	}

	// The thief vanishes (last gene, so the GO association file's earlier
	// records stay put and only LocusLink changes).
	corpusMu.Lock()
	c.Genes = c.Genes[:len(c.Genes)-1]
	corpusMu.Unlock()
	rr := refresh(t, m, "LocusLink")
	if !rr.Patched || rr.Deleted != 1 {
		t.Fatalf("thief removal not patched as one deletion: %+v", rr)
	}
	// The survivor must have reclaimed the key and the annotation.
	res, _, err = m.QueryString(
		`select G from ANNODA-GML.Gene G where G.Symbol = "` + shared + `" and exists G.Annotation`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatal("annotation not relinked to the surviving gene after key reclamation")
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)
}

// TestRefreshUpsertStealsCollidingKey is the mirror image: a resident
// gene holds a join symbol by alias and owns a disease linked through it;
// an upserted gene whose canonical symbol IS that key takes the index
// slot, and the disease must move — linked to the newcomer, unlinked from
// the alias holder — as a full re-fusion would have it.
func TestRefreshUpsertStealsCollidingKey(t *testing.T) {
	c := corpus()
	shared := "AASTOLENX1"
	holder := datagen.Gene{
		LocusID: 88811, Symbol: "ZZALIASED1", Aliases: []string{shared},
		Organism: "Homo sapiens", Description: "holds the key by alias",
		Position: "4q44", GOOrganism: "human",
		OMIMSymbol: "ZZALIASED1", OMIMPosition: "4q44",
	}
	disorder := datagen.Disease{
		MIM: 999101, Title: "SYMBOL-JOINED DISORDER",
		GeneSymbols: []string{shared}, // no Loci: pure symbol join
	}
	corpusMu.Lock()
	c.Genes = append(c.Genes, holder)
	c.Diseases = append(c.Diseases, disorder)
	corpusMu.Unlock()

	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	res, _, err := m.QueryString(
		`select G from ANNODA-GML.Gene G where G.Symbol = "ZZALIASED1" and exists G.Disease`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 1 {
		t.Fatalf("precondition: alias holder should own the disorder (got %d)", res.Size())
	}

	// The rightful owner arrives by delta and steals the slot.
	newcomer := datagen.Gene{
		LocusID: 88812, Symbol: shared, Organism: "Homo sapiens",
		Description: "canonical owner of the key", Position: "5q55",
		GOOrganism: "human", OMIMSymbol: shared, OMIMPosition: "5q55",
	}
	corpusMu.Lock()
	c.Genes = append(c.Genes, newcomer)
	corpusMu.Unlock()
	rr := refresh(t, m, "LocusLink")
	if !rr.Patched || rr.Upserted != 1 {
		t.Fatalf("newcomer not patched in: %+v", rr)
	}
	// Probe through the snapshot path (a Symbol= query would push down and
	// re-fuse only the filtered population, bypassing the patched graph):
	// in the patched snapshot the disorder must hang off the newcomer and
	// no longer off the alias holder.
	res, stats, err := m.QueryString(`select G from ANNODA-GML.Gene G where exists G.Disease or exists G.Annotation`)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SnapshotUsed {
		t.Fatal("probe did not evaluate against the patched snapshot")
	}
	hasDisease := map[string]bool{}
	for _, oid := range res.Graph.Children(res.Answer, "G") {
		if len(res.Graph.Children(oid, "Disease")) > 0 {
			hasDisease[res.Graph.StringUnder(oid, "Symbol")] = true
		}
	}
	if !hasDisease[shared] {
		t.Error("disorder not relinked to the newcomer that now owns the join key")
	}
	if hasDisease["ZZALIASED1"] {
		t.Error("alias holder still linked to the disorder its stolen key carried")
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)
}

// TestRefreshWindowServesPreRefreshWorld: while a RefreshSourceCtx is
// mid-flight (version bumped, delta not yet propagated) concurrent
// queries keep serving the pre-refresh world from cache and snapshot
// instead of nuking everything; once the gate lifts, an out-of-band
// refresh is handled the conservative way.
func TestRefreshWindowServesPreRefreshWorld(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	// Simulate the middle of a RefreshSourceCtx: gate held, version bumped.
	m.refreshing.Add(1)
	m.Registry().Get("GO").Refresh()
	_, stats, err := m.QueryString(snapshotQ)
	if err != nil {
		m.refreshing.Add(-1)
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Error("mid-refresh query nuked the cache instead of serving the pre-refresh world")
	}
	m.refreshing.Add(-1)
	// Gate lifted with the fingerprint still unpublished: the next query
	// falls back to the conservative full invalidation.
	_, stats, err = m.QueryString(snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Error("post-window query served stale cache after an out-of-band refresh")
	}
}

// TestCacheSurvivesUnrelatedRefresh is the concept-scoped invalidation
// regression: after a LocusLink (Gene) refresh, cached results that never
// touched gene data must still be served as hits, while gene-touching
// entries recompute.
func TestCacheSurvivesUnrelatedRefresh(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	diseaseQ := `select D from ANNODA-GML.Disease D`
	geneQ := `select G from ANNODA-GML.Gene G`
	for _, q := range []string{snapshotQ, diseaseQ, geneQ} {
		if _, _, err := m.QueryString(q); err != nil {
			t.Fatal(err)
		}
	}
	corpusMu.Lock()
	c.Genes[50].Description = "post-cache edit"
	corpusMu.Unlock()
	rr := refresh(t, m, "LocusLink")
	if !rr.Patched {
		t.Fatalf("refresh did not patch: %+v", rr)
	}
	if rr.Invalidated != 2 {
		t.Errorf("selectively invalidated %d entries, want 2 (the gene-touching ones)", rr.Invalidated)
	}
	_, stats, err := m.QueryString(diseaseQ)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Error("disease-only query did not survive a Gene-concept refresh as a cache hit")
	}
	_, stats, err = m.QueryString(geneQ)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Error("gene query served stale from cache after a Gene-concept refresh")
	}
	if n := metric(m, "annoda_selective_invalidations_total"); n != 2 {
		t.Errorf("selective invalidations = %d, want 2", n)
	}
}

// TestRefreshNoChange: refreshing an unchanged source is free — empty
// delta, snapshot fingerprint advanced in place, zero invalidations, and
// every cached result (snapshot-path ones included) survives as a hit.
func TestRefreshNoChange(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	rr := refresh(t, m, "GO")
	if rr.FullRebuild || !rr.Patched {
		t.Fatalf("no-op refresh mishandled: %+v", rr)
	}
	if rr.Upserted != 0 || rr.Deleted != 0 || rr.Invalidated != 0 {
		t.Fatalf("no-op refresh reported changes: %+v", rr)
	}
	_, stats, err := m.QueryString(snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Error("cached result lost to a refresh that changed nothing")
	}
}

// TestRefreshDeltaTooLarge: past MaxDeltaFraction the refresh must fall
// back to the drop-everything path and still end up correct.
func TestRefreshDeltaTooLarge(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{MaxDeltaFraction: 0.02})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	corpusMu.Lock()
	for i := 20; i < 40; i++ { // a third of the 60-gene corpus
		c.Genes[i].Description = fmt.Sprintf("bulk edit %d", i)
	}
	corpusMu.Unlock()
	rr := refresh(t, m, "LocusLink")
	if !rr.FullRebuild || rr.Patched {
		t.Fatalf("bulk change did not fall back: %+v", rr)
	}
	if n := metric(m, "annoda_full_rebuilds_total"); n != 1 {
		t.Errorf("full rebuilds = %d, want 1", n)
	}
	_, stats, err := m.QueryString(snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Error("stale result served after a full-rebuild refresh")
	}
	assertEquivalent(t, m, c)
}

// TestRefreshSourceNative: a wrapper that offers its own changelog is
// consulted instead of the structural differ.
func TestRefreshSourceNative(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	sw, ok := m.Registry().Get("LocusLink").(*swapSource)
	if !ok {
		t.Fatal("LocusLink is not a swapSource")
	}
	sw.native = true
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	corpusMu.Lock()
	c.Genes[45].Description = "native changelog edit"
	corpusMu.Unlock()
	rr := refresh(t, m, "LocusLink")
	if !rr.Native {
		t.Error("wrapper changelog was not used")
	}
	if !rr.Patched || rr.Upserted != 1 || rr.Deleted != 1 {
		t.Errorf("native delta misapplied: %+v", rr)
	}
	assertEquivalent(t, m, c)
}

// TestRefreshSourceFallbacks: unknown sources error; with the cache
// disabled the call degrades to a plain wrapper refresh.
func TestRefreshSourceFallbacks(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, err := m.RefreshSourceCtx(context.Background(), "NoSuchSource"); err == nil {
		t.Error("RefreshSourceCtx accepted an unknown source")
	}
	plain := mutManager(t, c, Options{DisableCache: true})
	rr, err := plain.RefreshSourceCtx(context.Background(), "GO")
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FullRebuild {
		t.Error("cache-less refresh should report a full rebuild")
	}
	if rr.NewVersion != rr.OldVersion+1 {
		t.Errorf("wrapper not refreshed: %d -> %d", rr.OldVersion, rr.NewVersion)
	}
}

// TestConcurrentQueriesDuringRefresh hammers the snapshot path from
// several goroutines while sources refresh incrementally — the snapshot
// lock must keep every answer either pre- or post-patch, never torn.
func TestConcurrentQueriesDuringRefresh(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := m.QueryString(snapshotQ); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 5; r++ {
		corpusMu.Lock()
		c.Genes[40+r].Description = fmt.Sprintf("concurrent edit %d", r)
		corpusMu.Unlock()
		if _, err := m.RefreshSourceCtx(context.Background(), "LocusLink"); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	assertEquivalent(t, m, c)
}
