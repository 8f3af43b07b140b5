package mediator

// Chaos soak and degraded-fusion tests: the fault-tolerance acceptance
// battery. A faults.Faulty-wrapped GO source misbehaves (hard outage,
// 20% error rate with jittered latency) while queries, batches and
// refreshes hammer the manager concurrently; the assertions are the
// paper-level availability properties — cached asks keep answering
// through the outage, the breaker caps the probe rate against a down
// source, and once faults clear the answers converge byte-equal to a
// never-faulted ground-truth manager.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/gml"
	"repro/internal/health"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/wrapper"
)

// faultyManager builds a manager whose GO wrapper is decorated with fault
// injection (configured AFTER construction, so schema inference and
// mapping see a healthy source).
func faultyManager(t testing.TB, c *datagen.Corpus, opts Options) (*Manager, *faults.Faulty) {
	t.Helper()
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
	fgo := faults.New(wrapper.NewGeneOntology(gos), faults.Config{})
	reg := wrapper.NewRegistry()
	for _, w := range []wrapper.Wrapper{wrapper.NewLocusLink(ll), fgo, wrapper.NewOMIM(om)} {
		if err := reg.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, gl, opts), fgo
}

// fastHealth is a breaker config with short, jitter-free windows so tests
// can walk the down->probe->recover cycle in milliseconds.
func fastHealth() health.Config {
	return health.Config{
		FailureThreshold: 3,
		BaseBackoff:      10 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		JitterFraction:   -1,
	}
}

func answersOf(t *testing.T, m *Manager) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, src := range deltaEquivQueries {
		res, _, err := m.QueryString(src)
		if err != nil {
			t.Fatalf("query %q: %v", src, err)
		}
		out[src] = oem.CanonicalText(res.Graph, "answer", res.Answer)
	}
	return out
}

// TestDegradedFusionAndReadmission is the recovery round-trip: a hard GO
// outage degrades the fused world instead of failing it, answers say so,
// and a successful probe folds GO back in — converging answers byte-equal
// to a never-faulted manager and announcing the recovery on the feed.
func TestDegradedFusionAndReadmission(t *testing.T) {
	c := corpus()
	truth := manager(t, c, Options{DisableCache: true})
	want := answersOf(t, truth)

	m, fgo := faultyManager(t, c, Options{MinSources: 1, Health: fastHealth()})
	sub, err := m.SubscribeChanges(feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	fgo.SetConfig(faults.Config{ErrorRate: 1})
	_, stats, err := m.QueryString(allSourcesQ)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if len(stats.DegradedSources) != 1 || stats.DegradedSources[0] != "GO" {
		t.Fatalf("DegradedSources = %v, want [GO]", stats.DegradedSources)
	}
	if !strings.Contains(stats.String(), "DEGRADED") {
		t.Fatal("degraded answer's explain output does not say DEGRADED")
	}
	// The surviving sources still answer a query over LocusLink data (by
	// the pipeline: a degraded epoch is not masked).
	res, _, err := m.QueryString(`select G from ANNODA-GML.Gene G`)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if res.Size() == 0 {
		t.Fatal("degraded epoch answered nothing for healthy-source data")
	}
	// The health view must agree: GO down or degraded, missing from epoch.
	var goStatus *SourceStatus
	for _, sh := range m.SourceHealth() {
		if sh.Source == "GO" {
			s := sh
			goStatus = &s
		}
	}
	if goStatus == nil || !goStatus.MissingFromEpoch {
		t.Fatalf("health view does not report GO missing from epoch: %+v", goStatus)
	}
	if rd := m.Readiness(); rd.Status != "degraded" {
		t.Fatalf("Readiness = %q during GO outage with MinSources 1, want degraded", rd.Status)
	}

	// Recovery: clear the faults, then probe until the breaker admits one
	// and the probe succeeds.
	fgo.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := m.ProbeSource(context.Background(), "GO")
		if err == nil {
			break
		}
		var de *health.DownError
		if !errors.As(err, &de) {
			t.Fatalf("probe failed with a non-breaker error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never admitted a successful probe")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The re-admission must be visible everywhere: health view, stats,
	// answers, and the feed.
	for _, sh := range m.SourceHealth() {
		if sh.Source == "GO" {
			if sh.State != "healthy" || sh.MissingFromEpoch {
				t.Fatalf("after probe: GO = %+v, want healthy and present", sh)
			}
		}
	}
	got := answersOf(t, m)
	for q, w := range want {
		if got[q] != w {
			t.Errorf("post-recovery answer for %q diverges from ground truth", q)
		}
	}
	_, stats, err = m.QueryString(allSourcesQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.DegradedSources) != 0 {
		t.Fatalf("post-recovery DegradedSources = %v, want empty", stats.DegradedSources)
	}
	if rd := m.Readiness(); rd.Status != "ready" {
		t.Fatalf("Readiness = %q after recovery, want ready", rd.Status)
	}
	sawSourceUp := false
	for sub.Pending() > 0 {
		ev, ok := sub.Next()
		if !ok {
			break
		}
		if ev.Kind == feed.KindSourceUp && ev.Source == "GO" {
			sawSourceUp = true
		}
	}
	if !sawSourceUp {
		t.Fatal("no source-up feed event after re-admission")
	}
}

// TestReadmissionIsInstrumentedLikeRefresh: probe re-admission runs the same
// publish step as RefreshSourceCtx, so it observes the feed-publish histogram
// (the hand-copied path forgot to), and its rebuild fallback records the
// standing-query re-evaluation span like a refresh's does.
func TestReadmissionIsInstrumentedLikeRefresh(t *testing.T) {
	degrade := func(t *testing.T) (*Manager, *faults.Faulty) {
		m, fgo := faultyManager(t, corpus(), Options{MinSources: 1, Health: fastHealth(), Obs: obs.New(obs.Config{})})
		fgo.SetConfig(faults.Config{ErrorRate: 1})
		if _, stats, err := m.QueryString(allSourcesQ); err != nil || len(stats.DegradedSources) != 1 {
			t.Fatalf("degraded query: stats %+v, err %v", stats, err)
		}
		fgo.Clear()
		return m, fgo
	}
	spansOf := func(m *Manager, op string) map[string]bool {
		stages := map[string]bool{}
		for _, tv := range m.o.Tracer.Recent() {
			if tv.Op == op {
				for _, sp := range tv.Spans {
					stages[sp.Stage] = true
				}
			}
		}
		return stages
	}

	t.Run("patched", func(t *testing.T) {
		m, _ := degrade(t)
		deadline := time.Now().Add(5 * time.Second)
		for m.ProbeSource(context.Background(), "GO") != nil {
			if time.Now().After(deadline) {
				t.Fatal("breaker never admitted a successful probe")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if n := m.Metrics().Value("annoda_feed_publish_duration_seconds"); n != 1 {
			t.Errorf("feed-publish histogram observed %d times by a re-admission, want 1", n)
		}
		if !spansOf(m, "probe")[obs.StageFeedPublish] {
			t.Error("re-admission trace has no feed_publish span")
		}
	})

	t.Run("rebuild fallback", func(t *testing.T) {
		m, fgo := degrade(t)
		// ProbeSource's two steps, with the fetched model swapped for one
		// that has no root for the source: it cannot be diffed, so the
		// re-admission must fall back to the shared rebuild path.
		tr := m.o.Start("probe", "GO")
		if _, err := m.sourceModel(context.Background(), fgo, tr); err != nil {
			t.Fatalf("recovered source still failing: %v", err)
		}
		m.readmitSource("GO", fgo, oem.NewGraph(), tr)
		tr.Finish()
		if n := metric(m, "annoda_full_rebuilds_total"); n != 1 {
			t.Fatalf("full rebuilds = %d, want 1 (diff of a rootless model must fall back)", n)
		}
		if !spansOf(m, "probe")[obs.StageStandingEval] {
			t.Error("re-admission rebuild fallback recorded no standing_eval span")
		}
		// The fallback is always safe: the next query rebuilds the world
		// from the (recovered) sources, complete again.
		if _, stats, err := m.QueryString(allSourcesQ); err != nil || len(stats.DegradedSources) != 0 {
			t.Errorf("post-fallback query: degraded %v, err %v", stats.DegradedSources, err)
		}
	})
}

// TestStrictModeAndRequiredSources: MinSources = 0 (the default) keeps
// the old all-or-nothing contract, and RequireSources makes a listed
// source's failure fatal even in degraded mode.
func TestStrictModeAndRequiredSources(t *testing.T) {
	c := corpus()
	t.Run("strict-default", func(t *testing.T) {
		m, fgo := faultyManager(t, c, Options{DisableCache: true})
		fgo.SetConfig(faults.Config{ErrorRate: 1})
		if _, _, err := m.QueryString(allSourcesQ); err == nil {
			t.Fatal("strict-mode query succeeded with a source down")
		}
	})
	t.Run("required-source", func(t *testing.T) {
		m, fgo := faultyManager(t, c, Options{DisableCache: true, MinSources: 1, RequireSources: []string{"GO"}})
		fgo.SetConfig(faults.Config{ErrorRate: 1})
		if _, _, err := m.QueryString(allSourcesQ); err == nil {
			t.Fatal("query succeeded with a required source down")
		}
		// Open the breaker, then the readiness verdict for a required-down
		// source must be "down", not merely "degraded".
		for i := 0; i < 3; i++ {
			_, _ = m.sourceModel(context.Background(), m.reg.Get("GO"), nil)
		}
		if rd := m.Readiness(); rd.Status != "down" {
			t.Fatalf("Readiness = %q with required source down, want down", rd.Status)
		}
	})
	t.Run("min-sources-floor", func(t *testing.T) {
		m, fgo := faultyManager(t, c, Options{DisableCache: true, MinSources: 3})
		fgo.SetConfig(faults.Config{ErrorRate: 1})
		if _, _, err := m.QueryString(allSourcesQ); err == nil {
			t.Fatal("query succeeded below the MinSources floor")
		}
	})
}

// TestPrunedQueryBesideADownSource: a query that prunes a source must not
// pay for that source's outage. With no epoch published and GO's breaker
// open, every pruned query goes straight to the pipeline — one LocusLink
// fetch each, not a second one for an epoch build that cannot succeed — and
// on a degraded epoch a pruned query is not masked: the pipeline answers it
// in full, and its Stats report GO missing only when the query needed GO.
func TestPrunedQueryBesideADownSource(t *testing.T) {
	c := corpus()
	truth := manager(t, c, Options{DisableCache: true})
	stuck := health.Config{FailureThreshold: 1, BaseBackoff: time.Minute, MaxBackoff: time.Minute, JitterFraction: -1}
	pruningGO := []string{
		`select G.Symbol from ANNODA-GML.Gene G`,
		`select G.Symbol from ANNODA-GML.Gene G where exists G.Disease`,
		`select G.GeneID from ANNODA-GML.Gene G where not exists G.Disease`,
	}
	check := func(t *testing.T, m *Manager) {
		t.Helper()
		before := m.health.For("LocusLink").Snapshot().Successes
		for _, q := range pruningGO {
			got, st := mustQuery(t, m, q)
			if want, _ := mustQuery(t, truth, q); got != want {
				t.Errorf("%s: answer differs from the healthy federation's", q)
			}
			if st.SnapshotUsed || len(st.DegradedSources) != 0 {
				t.Errorf("%s: snapshot_used=%v degraded=%v, want the pipeline and a complete answer", q, st.SnapshotUsed, st.DegradedSources)
			}
		}
		if n := m.health.For("LocusLink").Snapshot().Successes - before; n != uint64(len(pruningGO)) {
			t.Errorf("LocusLink fetched %d times by %d pruned queries: epoch builds were attempted", n, len(pruningGO))
		}
	}

	t.Run("strict, no epoch", func(t *testing.T) {
		m, fgo := faultyManager(t, c, Options{Health: stuck})
		fgo.SetConfig(faults.Config{ErrorRate: 1})
		if _, _, err := m.QueryString(allSourcesQ); err == nil { // opens GO's breaker
			t.Fatal("strict-mode query succeeded with a source down")
		}
		check(t, m)
		if n := m.epochsPublished.Value(); n != 0 {
			t.Errorf("%d epochs published with GO down in strict mode", n)
		}
	})
	t.Run("degraded epoch", func(t *testing.T) {
		m, fgo := faultyManager(t, c, Options{MinSources: 1, Health: stuck})
		fgo.SetConfig(faults.Config{ErrorRate: 1})
		if _, st, err := m.QueryString(allSourcesQ); err != nil || !st.SnapshotUsed || len(st.DegradedSources) != 1 {
			t.Fatalf("degraded epoch not built: %v, %+v", err, st)
		}
		check(t, m)
		_, st := mustQuery(t, m, `select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation`)
		if st.SnapshotUsed || len(st.DegradedSources) != 1 || st.DegradedSources[0] != "GO" {
			t.Errorf("query needing GO: snapshot_used=%v degraded=%v, want the pipeline reporting GO", st.SnapshotUsed, st.DegradedSources)
		}
		e, err := m.ExplainString(pruningGO[0], false)
		if err != nil {
			t.Fatal(err)
		}
		if e.SnapshotSafe || !strings.Contains(e.PathReason, "built without GO") {
			t.Errorf("explain: safe=%v reason %q, want the degraded epoch declining", e.SnapshotSafe, e.PathReason)
		}
	})
}

// TestBreakerCapsProbeRate: once a source's breaker opens, continued
// query pressure must not translate into fetch pressure on the source —
// only the occasional half-open probe gets through.
func TestBreakerCapsProbeRate(t *testing.T) {
	c := corpus()
	m, fgo := faultyManager(t, c, Options{
		MinSources: 1,
		Health: health.Config{
			FailureThreshold: 3,
			BaseBackoff:      100 * time.Millisecond,
			MaxBackoff:       time.Second,
			JitterFraction:   -1,
		},
	})
	fgo.SetConfig(faults.Config{ErrorRate: 1})
	// Open the breaker: three queries, three final failures.
	for i := 0; i < 3; i++ {
		if _, _, err := m.QueryString(allSourcesQ); err != nil {
			t.Fatalf("degraded query %d failed: %v", i, err)
		}
		// Each query must observe a fresh fetch failure, so invalidate the
		// epoch's world by refreshing a healthy source... not needed: the
		// degraded epoch pins on the same fingerprint, so only the FIRST
		// query fetches. Fetch directly instead.
	}
	// The epoch absorbed the failures? No — a degraded epoch serves reads
	// without re-fetching, which is itself the availability property. To
	// open the breaker, charge it through the fetch path directly.
	for i := 0; i < 3; i++ {
		_, _ = m.sourceModel(context.Background(), m.reg.Get("GO"), nil)
	}
	down := false
	for _, sh := range m.SourceHealth() {
		if sh.Source == "GO" && sh.State == "down" {
			down = true
		}
	}
	if !down {
		t.Fatal("breaker did not open after repeated failures")
	}
	base := fgo.Counters().Fetches
	// Hammer the fetch path far faster than the 100ms backoff window; the
	// breaker must refuse nearly all of them.
	for i := 0; i < 200; i++ {
		_, _ = m.sourceModel(context.Background(), m.reg.Get("GO"), nil)
	}
	if got := fgo.Counters().Fetches - base; got > 5 {
		t.Fatalf("down source fetched %d times under pressure, want <= 5 (breaker must cap probes)", got)
	}
}

// TestChaosSoak is the -race soak: one source at 20% error rate with
// jittered latency while queries, batches and refreshes run concurrently.
// Zero query errors are tolerated — degraded-mode fusion plus in-fetch
// retries must absorb every injected fault — and after the faults stop,
// one recovery converges every answer byte-equal to ground truth.
func TestChaosSoak(t *testing.T) {
	c := corpus()
	truth := manager(t, c, Options{DisableCache: true})
	want := answersOf(t, truth)

	m, fgo := faultyManager(t, c, Options{
		MinSources:   1,
		FetchRetries: 1,
		FetchBackoff: 5 * time.Millisecond,
		Health:       fastHealth(),
	})
	// Warm the first epoch while healthy so the soak starts from a served
	// world (the paper's steady state), then inject the chaos.
	if _, _, err := m.QueryString(allSourcesQ); err != nil {
		t.Fatal(err)
	}
	fgo.SetConfig(faults.Config{
		Seed:       99,
		ErrorRate:  0.20,
		MinLatency: 200 * time.Microsecond,
		MaxLatency: 2 * time.Millisecond,
	})

	soak := 1500 * time.Millisecond
	if testing.Short() {
		soak = 300 * time.Millisecond
	}
	stop := time.After(soak)
	done := make(chan struct{})
	var queryErrs, batchErrs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-done:
					return
				default:
				}
				q := deltaEquivQueries[i%len(deltaEquivQueries)]
				if _, _, err := m.QueryString(q); err != nil {
					queryErrs.Add(1)
					t.Errorf("query error under chaos: %v", err)
					return
				}
				i++
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := m.AskBatchCtx(context.Background(), deltaEquivQueries[:3]); err != nil {
				batchErrs.Add(1)
				t.Errorf("batch error under chaos: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Refresh errors are legitimate during chaos (the refresh path
			// reports source failures, it does not hide them); what must
			// hold is that they never poison the query path.
			_, _ = m.RefreshSourceCtx(context.Background(), "GO")
			time.Sleep(3 * time.Millisecond)
		}
	}()
	<-stop
	close(done)
	wg.Wait()
	if queryErrs.Load() > 0 || batchErrs.Load() > 0 {
		t.Fatalf("chaos soak: %d query errors, %d batch errors (want 0)",
			queryErrs.Load(), batchErrs.Load())
	}

	// Convergence: faults off, recover the source, answers must be
	// byte-equal to the never-faulted manager.
	fgo.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := m.ProbeSource(context.Background(), "GO"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("source never recovered after faults cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := m.RefreshSourceCtx(context.Background(), "GO"); err != nil {
		t.Fatalf("post-chaos refresh failed: %v", err)
	}
	got := answersOf(t, m)
	for q, w := range want {
		if got[q] != w {
			t.Errorf("post-chaos answer for %q diverges from ground truth", q)
		}
	}
}
