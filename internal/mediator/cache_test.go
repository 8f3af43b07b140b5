package mediator

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/oem"
)

const cacheTestQuery = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

func TestCacheHitMissCounters(t *testing.T) {
	m := manager(t, corpus(), Options{})
	res1, stats1, err := m.QueryString(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !stats1.CacheEnabled || stats1.CacheHit {
		t.Fatalf("first query: enabled=%v hit=%v, want enabled miss", stats1.CacheEnabled, stats1.CacheHit)
	}
	res2, stats2, err := m.QueryString(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.CacheHit {
		t.Fatal("second identical query was not a cache hit")
	}
	if res2 != res1 {
		t.Fatal("cache hit returned a different Result pointer")
	}
	if metric(m, "annoda_cache_hits_total") < 1 || metric(m, "annoda_cache_misses_total") < 1 {
		t.Fatal("hit and miss not counted in the registry")
	}
	// Whitespace-insensitive: the canonical form is the key.
	_, stats3, err := m.QueryString("select   G from ANNODA-GML.Gene   G where exists G.Annotation and not exists G.Disease")
	if err != nil {
		t.Fatal(err)
	}
	if !stats3.CacheHit {
		t.Error("canonically-equal query missed the cache")
	}
}

func TestDisableCacheMatchesCachedResults(t *testing.T) {
	c := corpus()
	cached := manager(t, c, Options{})
	plain := manager(t, c, Options{DisableCache: true})

	for i := 0; i < 2; i++ { // second round exercises the hit path
		rc, sc, err := cached.QueryString(cacheTestQuery)
		if err != nil {
			t.Fatal(err)
		}
		rp, sp, err := plain.QueryString(cacheTestQuery)
		if err != nil {
			t.Fatal(err)
		}
		if sp.CacheEnabled || sp.CacheHit {
			t.Fatalf("DisableCache leaked cache state into stats: %+v", sp)
		}
		a, b := geneSymbols(rc, "G"), geneSymbols(rp, "G")
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: cached answers %v != uncached %v", i, a, b)
		}
		if len(sc.SourcesQueried) != len(sp.SourcesQueried) {
			t.Fatalf("round %d: plans diverge: %v vs %v", i, sc.SourcesQueried, sp.SourcesQueried)
		}
	}
	// A disabled cache registers no cache series at all; an enabled one
	// has counted this test's misses.
	if n := metric(plain, "annoda_cache_misses_total"); n != 0 {
		t.Errorf("disabled cache reports %d misses", n)
	}
	if metric(cached, "annoda_cache_misses_total") == 0 {
		t.Error("cache counters not readable on a cached manager")
	}
}

func TestCacheInvalidatedBySourceRefresh(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	ll := m.reg.Get("LocusLink")

	if _, _, err := m.QueryString(cacheTestQuery); err != nil {
		t.Fatal(err)
	}
	_, stats, _ := m.QueryString(cacheTestQuery)
	if !stats.CacheHit {
		t.Fatal("warm query should hit")
	}
	ll.Refresh()
	_, stats, err := m.QueryString(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHit {
		t.Fatal("query after source Refresh served from stale cache")
	}
}

// End-to-end freshness after an in-place source update is covered by
// TestFreshnessAfterSourceUpdate in mediator_test.go, which now runs with
// the cache enabled (Options{} default).

func TestFusedGraphCached(t *testing.T) {
	m := manager(t, corpus(), Options{})
	g1, s1, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheHit {
		t.Fatal("cold FusedGraph reported a hit")
	}
	g2, s2, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !s2.CacheHit || g2 != g1 {
		t.Fatal("warm FusedGraph did not serve the cached graph")
	}
}

func TestConcurrentIdenticalQueriesCollapse(t *testing.T) {
	m := manager(t, corpus(), Options{})
	const n = 16
	var wg sync.WaitGroup
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := m.QueryString(cacheTestQuery)
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = res.Size()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if sizes[i] != sizes[0] {
			t.Fatalf("caller %d saw %d answers, caller 0 saw %d", i, sizes[i], sizes[0])
		}
	}
	misses, shared, hits := metric(m, "annoda_cache_misses_total"), metric(m, "annoda_cache_shared_total"), metric(m, "annoda_cache_hits_total")
	// At most two computes may run: the query itself plus the shared fused
	// snapshot it evaluates against. Either way the federated fan-out ran
	// once — the other 15 callers collapsed onto it or hit the stored
	// result.
	if misses > 2 {
		t.Errorf("%d computes for %d concurrent identical queries, want <= 2 (shared=%d hits=%d)",
			misses, n, shared, hits)
	}
	if shared+hits != n-1 {
		t.Errorf("shared=%d hits=%d for %d callers, want the other %d collapsed or served",
			shared, hits, n, n-1)
	}
}

// TestSnapshotFastPathSharedAcrossDistinctQueries: distinct snapshot-safe
// questions over an unchanged source set must share ONE fused graph and run
// eval-only, and their answers must be bit-for-bit what the uncached
// pipeline computes.
func TestSnapshotFastPathSharedAcrossDistinctQueries(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	plain := manager(t, c, Options{DisableCache: true})
	// Each query touches every mapped concept (Gene, Annotation, Disease),
	// so nothing is pruned and nothing is pushed down — snapshot-safe.
	queries := []string{
		`select G from ANNODA-GML.Gene G where exists G.Annotation or exists G.Disease`,
		`select G from ANNODA-GML.Gene G where not exists G.Disease and exists G.Annotation`,
		`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`,
		// Structural conjuncts on nested attributes stay snapshot-safe.
		`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation.GoID and exists G.Annotation.Evidence and exists G.Links.GO and not exists G.Disease.MimNumber`,
	}
	for i, src := range queries {
		res, stats, err := m.QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.SnapshotUsed {
			t.Errorf("query %d did not take the snapshot fast path", i)
		}
		rp, sp, err := plain.QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		if sp.SnapshotUsed {
			t.Error("uncached manager claims snapshot use")
		}
		got := oem.TextString(res.Graph, "answer", res.Answer)
		want := oem.TextString(rp.Graph, "answer", rp.Answer)
		if got != want {
			t.Errorf("query %d: snapshot answer diverges from pipeline answer:\n--- snapshot ---\n%s\n--- pipeline ---\n%s", i, got, want)
		}
	}
	if n := metric(m, "annoda_snapshot_hits_total"); n != int64(len(queries)) {
		t.Fatalf("snapshot hits = %d, want %d", n, len(queries))
	}
	// One cache miss per distinct query; the shared fused snapshot lives
	// outside the result cache (it is patched in place by RefreshSourceCtx)
	// and so contributes no miss of its own.
	if n := metric(m, "annoda_cache_misses_total"); n != int64(len(queries)) {
		t.Errorf("%d cache misses for %d distinct queries, want %d", n, len(queries), len(queries))
	}
}

// TestSnapshotIneligibleQueries: a query that pushes a predicate down keeps
// the per-query pipeline (the snapshot retains what the pushdown filters); a
// query that merely names fewer than all concepts no longer does — it is
// evaluated on the snapshot under a mask hiding the others. Both still agree
// with the uncached manager byte for byte.
func TestSnapshotIneligibleQueries(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	plain := manager(t, c, Options{DisableCache: true})
	queries := []struct {
		src    string
		masked []string // nil: the pipeline must answer
	}{
		// Pushdown: the Symbol predicate is applied at the source.
		{`select G from ANNODA-GML.Gene G where G.Symbol like "A%"`, nil},
		// Pruning: only the Gene concept is needed; GO and OMIM are pruned
		// by the pipeline, masked on the snapshot.
		{`select G from ANNODA-GML.Gene G`, []string{"Annotation", "Disease"}},
	}
	for i, q := range queries {
		res, stats, err := m.QueryString(q.src)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SnapshotUsed != (q.masked != nil) || !slices.Equal(stats.Masked, q.masked) {
			t.Errorf("query %d: SnapshotUsed=%v Masked=%v, want snapshot=%v masked=%v",
				i, stats.SnapshotUsed, stats.Masked, q.masked != nil, q.masked)
		}
		rp, _, err := plain.QueryString(q.src)
		if err != nil {
			t.Fatal(err)
		}
		got := oem.TextString(res.Graph, "answer", res.Answer)
		want := oem.TextString(rp.Graph, "answer", rp.Answer)
		if got != want {
			t.Errorf("query %d: cached answer diverges from uncached:\n%s\nvs\n%s", i, got, want)
		}
	}
	if hits, misses := metric(m, "annoda_snapshot_hits_total"), metric(m, "annoda_snapshot_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("snapshot hits/misses = %d/%d, want 1/1", hits, misses)
	}
	for _, concept := range []string{"Annotation", "Disease"} {
		if n := metric(m, `annoda_epoch_masked_total{concept="`+concept+`"}`); n != 1 {
			t.Errorf("annoda_epoch_masked_total{concept=%q} = %d, want 1", concept, n)
		}
	}
}

// TestCachedStatsDeepCopied: every caller of a cached entry gets its own
// Stats — mutating one caller's maps and slices, or the conflict list
// ConflictList hands it, must not leak into another caller's copy or the
// stored original. (Regression: cachedDo used to shallow-copy, sharing
// Fetched/Kept/Conflicts/SourcesQueried.)
func TestCachedStatsDeepCopied(t *testing.T) {
	m := manager(t, corpus(), Options{})
	_, s1, err := m.QueryString(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := m.QueryString(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize the first caller's stats.
	for k := range s1.Fetched {
		s1.Fetched[k] = -99
	}
	for k := range s1.Kept {
		delete(s1.Kept, k)
	}
	for i := range s1.SourcesQueried {
		s1.SourcesQueried[i] = "corrupted"
	}
	vandalized := s1.ConflictList()
	if len(vandalized) == 0 {
		t.Fatal("the fixture reconciles no conflict; the vandalism below tests nothing")
	}
	for i := range vandalized {
		vandalized[i].Label = "corrupted"
	}
	// Neither an earlier caller's copy nor a fresh one may see it.
	_, s3, err := m.QueryString(cacheTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Stats{s2, s3} {
		for k, v := range s.Fetched {
			if v == -99 {
				t.Fatalf("Fetched[%q] shared between callers", k)
			}
		}
		if len(s.Kept) == 0 {
			t.Fatal("Kept map shared between callers")
		}
		for _, src := range s.SourcesQueried {
			if src == "corrupted" {
				t.Fatal("SourcesQueried slice shared between callers")
			}
		}
		for _, cf := range append(s.ConflictList(), s1.ConflictList()...) {
			if cf.Label == "corrupted" {
				t.Fatal("Conflicts slice shared between callers")
			}
		}
	}
}
