package mediator

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/feed"
	"repro/internal/oem"
)

// drainFeed pops everything currently queued on a subscriber. Events are
// enqueued synchronously by RefreshSourceCtx (publication happens under the
// epoch writer lock before the call returns), so sequential tests never
// need to wait.
func drainFeed(s *feed.Subscriber) []feed.Event {
	var out []feed.Event
	for {
		ev, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// editGene gives gene gi a fresh description (a reconciled label, so the
// LocusLink delta is always non-empty — callers must pick a gene whose
// LocusLink record keeps its description, see editableGenes).
func editGene(c *datagen.Corpus, gi int, tag string) {
	corpusMu.Lock()
	c.Genes[gi].Description = fmt.Sprintf("watch edit %s", tag)
	corpusMu.Unlock()
}

// editableGenes returns n late-index gene indices whose description
// edits are observable (LocusLink does not drop the field).
func editableGenes(t *testing.T, c *datagen.Corpus, n int) []int {
	t.Helper()
	corpusMu.RLock()
	defer corpusMu.RUnlock()
	var out []int
	for i := 40; i < len(c.Genes) && len(out) < n; i++ {
		if !c.Genes[i].LLMissingDesc {
			out = append(out, i)
		}
	}
	if len(out) < n {
		t.Fatalf("corpus too small: only %d editable genes past index 40, need %d", len(out), n)
	}
	return out
}

// editAnnotations respells gene gi's GO organism so the next GO refresh
// carries one upsert per annotation.
func editAnnotations(c *datagen.Corpus, gi int, tag string) {
	corpusMu.Lock()
	c.Genes[gi].GOOrganism = fmt.Sprintf("human (%s)", tag)
	corpusMu.Unlock()
}

// TestFeedConceptFilterAndOrder: a subscriber watching concept C receives
// exactly the refreshes touching C, in publication order with strictly
// monotonic sequence numbers; an unrelated-concept subscriber receives
// none; empty deltas publish nothing.
func TestFeedConceptFilterAndOrder(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	subAnn, err := m.SubscribeChanges(feed.Options{Concepts: []string{"Annotation"}})
	if err != nil {
		t.Fatal(err)
	}
	defer subAnn.Close()
	subDis, err := m.SubscribeChanges(feed.Options{Concepts: []string{"Disease"}})
	if err != nil {
		t.Fatal(err)
	}
	defer subDis.Close()
	subAll, err := m.SubscribeChanges(feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer subAll.Close()

	gi := geneWithTerms(t, c)
	const rounds = 4
	targets := editableGenes(t, c, rounds)
	var wantSources []string
	for r := 0; r < rounds; r++ {
		editGene(c, targets[r], fmt.Sprintf("g%d", r))
		refresh(t, m, "LocusLink")
		wantSources = append(wantSources, "LocusLink")
		editAnnotations(c, gi, fmt.Sprintf("a%d", r))
		refresh(t, m, "GO")
		wantSources = append(wantSources, "GO")
	}
	// An untouched source refresh produces an empty delta — no event.
	refresh(t, m, "OMIM")

	ann := drainFeed(subAnn)
	if len(ann) != rounds {
		t.Fatalf("Annotation subscriber got %d events, want %d (one per GO refresh)", len(ann), rounds)
	}
	var last uint64
	for i, ev := range ann {
		if ev.Kind != feed.KindChange || ev.Source != "GO" {
			t.Fatalf("Annotation event %d = %+v, want a GO change", i, ev)
		}
		if len(ev.Concepts) != 1 || ev.Concepts[0] != "Annotation" {
			t.Fatalf("Annotation event %d touched %v", i, ev.Concepts)
		}
		if ev.Seq <= last {
			t.Fatalf("sequence not monotonic: %d after %d", ev.Seq, last)
		}
		if ev.Fingerprint == 0 {
			t.Fatalf("event %d carries no epoch fingerprint", i)
		}
		last = ev.Seq
	}
	if got := drainFeed(subDis); len(got) != 0 {
		t.Fatalf("Disease subscriber received %d events for refreshes that never touched Disease", len(got))
	}
	all := drainFeed(subAll)
	if len(all) != 2*rounds {
		t.Fatalf("unfiltered subscriber got %d events, want %d", len(all), 2*rounds)
	}
	for i, ev := range all {
		if ev.Source != wantSources[i] {
			t.Fatalf("event %d from %s, want %s (publication order violated)", i, ev.Source, wantSources[i])
		}
		if i > 0 && ev.Seq <= all[i-1].Seq {
			t.Fatalf("unfiltered sequence not monotonic at %d", i)
		}
	}

	if published, subs := metric(m, "annoda_feed_events_published_total"), metric(m, "annoda_feed_subscribers"); published != int64(2*rounds) || subs != 3 {
		t.Errorf("feed counters = %d published / %d subscribers, want %d / 3", published, subs, 2*rounds)
	}
}

// geneWithTerms returns the index of a gene that has GO annotations.
func geneWithTerms(t *testing.T, c *datagen.Corpus) int {
	t.Helper()
	corpusMu.RLock()
	defer corpusMu.RUnlock()
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 {
			return i
		}
	}
	t.Fatal("corpus has no gene with GO terms")
	return -1
}

// TestFeedOverflowMarker: a subscriber that stops draining gets a bounded
// queue with an explicit overflow marker — lost count plus the newest lost
// epoch fingerprint — never a silent gap.
func TestFeedOverflowMarker(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubscribeChanges(feed.Options{Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const total = 6
	targets := editableGenes(t, c, total)
	for r := 0; r < total; r++ {
		editGene(c, targets[r], fmt.Sprintf("o%d", r))
		refresh(t, m, "LocusLink")
	}
	got := drainFeed(sub)
	if len(got) != 3 {
		t.Fatalf("drained %d events, want 2 changes + 1 marker", len(got))
	}
	if got[0].Kind != feed.KindChange || got[1].Kind != feed.KindChange {
		t.Fatalf("first events = %+v, want changes", got[:2])
	}
	marker := got[2]
	if marker.Kind != feed.KindOverflow {
		t.Fatalf("tail = %+v, want an overflow marker", marker)
	}
	if marker.Lost != total-2 {
		t.Errorf("marker lost = %d, want %d", marker.Lost, total-2)
	}
	if marker.Seq != got[1].Seq+uint64(marker.Lost) {
		t.Errorf("marker seq = %d, want %d (the newest lost event)", marker.Seq, got[1].Seq+uint64(marker.Lost))
	}
	if marker.Fingerprint != m.lastFP.Load() {
		t.Errorf("marker fingerprint = %x, want the live fingerprint %x (the resync target)", marker.Fingerprint, m.lastFP.Load())
	}
	delivered, dropped, published := metric(m, "annoda_feed_events_delivered_total"), metric(m, "annoda_feed_events_dropped_total"), metric(m, "annoda_feed_events_published_total")
	if published == 0 || delivered+dropped != published {
		t.Errorf("accounting gap: delivered %d + dropped %d != published %d", delivered, dropped, published)
	}
	if n := metric(m, "annoda_feed_overflows_total"); n != 1 {
		t.Errorf("overflows = %d, want 1", n)
	}
}

// TestFeedSummaryPayload: the optional summary is the WAL's own ChangeSet
// encoding, decodable by delta.DecodeChangeSet.
func TestFeedSummaryPayload(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubscribeChanges(feed.Options{Summary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	gi := geneWithTerms(t, c)
	editAnnotations(c, gi, "summary")
	rr := refresh(t, m, "GO")
	ev, ok := sub.Next()
	if !ok || ev.Summary == nil {
		t.Fatalf("no summarized event after refresh (ok=%v)", ok)
	}
	cs, err := delta.DecodeChangeSet(bytes.NewReader(ev.Summary))
	if err != nil {
		t.Fatalf("summary does not decode as a ChangeSet: %v", err)
	}
	if cs.Source != "GO" || len(cs.Upserted) != rr.Upserted || len(cs.Deleted) != rr.Deleted {
		t.Errorf("decoded summary = %s %d/%d, want GO %d/%d", cs.Source, len(cs.Upserted), len(cs.Deleted), rr.Upserted, rr.Deleted)
	}
	if ev.Upserted != rr.Upserted || ev.Deleted != rr.Deleted {
		t.Errorf("event counts %d/%d disagree with refresh result %d/%d", ev.Upserted, ev.Deleted, rr.Upserted, rr.Deleted)
	}
}

// TestStandingQuery: an answer event is pushed iff the answer's canonical
// text changed, and its text is byte-equal to a fresh query evaluated
// against the post-refresh epoch.
func TestStandingQuery(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	// Filter out broadcast change events so the queue holds only this
	// standing query's answers (Send bypasses the concept filter).
	sub, err := m.SubscribeChanges(feed.Options{Concepts: []string{"NoSuchConcept"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sq, err := m.AddStandingQuery(sub, snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Cancel()

	freshText := func() string {
		res, _, err := m.QueryString(snapshotQ)
		if err != nil {
			t.Fatal(err)
		}
		return oem.CanonicalText(res.Graph, "answer", res.Answer)
	}

	base := drainFeed(sub)
	if len(base) != 1 || base[0].Kind != feed.KindAnswer || !base[0].Initial {
		t.Fatalf("baseline = %+v, want one initial answer event", base)
	}
	t0 := freshText()
	if base[0].Text != t0 {
		t.Fatalf("baseline text diverges from a fresh query on the same epoch")
	}

	// (a) An edit that changes the answer: respell the description of a
	// gene that is in the answer set (has annotations, no disease).
	gi := answerGene(t, c)
	editGene(c, gi, "standing-a")
	refresh(t, m, "LocusLink")
	t1 := freshText()
	if t1 == t0 {
		t.Fatal("test premise broken: the edit did not change the answer")
	}
	got := drainFeed(sub)
	if len(got) != 1 || got[0].Kind != feed.KindAnswer || got[0].Initial {
		t.Fatalf("after answer-changing edit got %+v, want one non-initial answer", got)
	}
	if got[0].Text != t1 {
		t.Errorf("pushed answer is not byte-equal to a fresh query on the post-refresh epoch")
	}

	// (b) An edit that touches a watched concept but preserves the
	// answer: retitling a disease re-evaluates (the query's tags include
	// Disease) but must push nothing.
	corpusMu.Lock()
	c.Diseases[0].Title = "WATCHED BUT IRRELEVANT SYNDROME"
	corpusMu.Unlock()
	refresh(t, m, "OMIM")
	if t2 := freshText(); t2 != t1 {
		t.Fatal("test premise broken: the disease retitle changed the answer")
	}
	if got := drainFeed(sub); len(got) != 0 {
		t.Fatalf("unchanged answer still pushed %d events", len(got))
	}

	// After Cancel, further changes push nothing.
	sq.Cancel()
	editGene(c, gi, "standing-c")
	refresh(t, m, "LocusLink")
	if got := drainFeed(sub); len(got) != 0 {
		t.Fatalf("cancelled standing query still pushed %d events", len(got))
	}
}

// answerGene finds a gene that is in snapshotQ's answer: it has GO
// annotations and is linked to no disease.
func answerGene(t *testing.T, c *datagen.Corpus) int {
	t.Helper()
	corpusMu.RLock()
	defer corpusMu.RUnlock()
	diseased := map[int]bool{}
	for _, d := range c.Diseases {
		for _, l := range d.Loci {
			diseased[l] = true
		}
	}
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 && !diseased[c.Genes[i].LocusID] && !c.Genes[i].LLMissingDesc {
			return i
		}
	}
	t.Fatal("corpus has no annotated, disease-free gene")
	return -1
}

// TestStandingQueryRejectsUnsafe: queries that would prune or push down
// cannot be watched — their pushed answers would diverge from Query.
func TestStandingQueryRejectsUnsafe(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	sub, err := m.SubscribeChanges(feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := m.AddStandingQuery(sub, `select G from ANNODA-GML.Gene G where G.Symbol = "ZZZ"`); err == nil {
		t.Fatal("pushdown-eligible standing query was accepted")
	}
	if _, err := m.AddStandingQuery(sub, `select G from`); err == nil {
		t.Fatal("unparsable standing query was accepted")
	}
}

// TestFeedDisabledWithoutCache: no cache, no epochs, no feed.
func TestFeedDisabledWithoutCache(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{DisableCache: true})
	if _, err := m.SubscribeChanges(feed.Options{}); err != ErrFeedDisabled {
		t.Fatalf("SubscribeChanges on uncached manager: %v, want ErrFeedDisabled", err)
	}
	if _, err := m.AddStandingQuery(nil, snapshotQ); err != ErrFeedDisabled {
		t.Fatalf("AddStandingQuery on uncached manager: %v, want ErrFeedDisabled", err)
	}
}

// TestFullRebuildMarkerAndReeval: a refresh that falls back to a full
// rebuild publishes a wildcard rebuild marker (every subscriber must
// resync) and still re-evaluates standing queries against the freshly
// rebuilt world.
func TestFullRebuildMarkerAndReeval(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{MaxDeltaFraction: 0.02})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubscribeChanges(feed.Options{Concepts: []string{"Disease"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sq, err := m.AddStandingQuery(sub, snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Cancel()
	base := drainFeed(sub)
	if len(base) != 1 || !base[0].Initial {
		t.Fatalf("baseline = %+v", base)
	}

	gi := answerGene(t, c)
	corpusMu.Lock()
	for i := 20; i < 40; i++ {
		c.Genes[i].Description = fmt.Sprintf("bulk watch edit %d", i)
	}
	c.Genes[gi].Description = "bulk watch edit target"
	corpusMu.Unlock()
	rr := refresh(t, m, "LocusLink")
	if !rr.FullRebuild {
		t.Fatalf("bulk edit did not trigger a full rebuild: %+v", rr)
	}
	got := drainFeed(sub)
	if len(got) != 2 {
		t.Fatalf("after rebuild got %d events, want rebuild marker + answer", len(got))
	}
	if got[0].Kind != feed.KindRebuild || len(got[0].Concepts) != 1 || got[0].Concepts[0] != "*" {
		t.Fatalf("first event = %+v, want a wildcard rebuild marker", got[0])
	}
	if got[0].Fingerprint != m.lastFP.Load() {
		t.Errorf("rebuild marker fingerprint %x != live fingerprint %x", got[0].Fingerprint, m.lastFP.Load())
	}
	if got[1].Kind != feed.KindAnswer || got[1].Initial {
		t.Fatalf("second event = %+v, want the re-evaluated answer", got[1])
	}
	res, _, err := m.QueryString(snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	if want := oem.CanonicalText(res.Graph, "answer", res.Answer); got[1].Text != want {
		t.Error("re-evaluated answer is not byte-equal to a fresh query on the rebuilt epoch")
	}
}

// TestConcurrentFullRebuildsPublishLiveFP is the regression test for the
// lastFP load-then-CAS race: two refreshes falling back to full rebuilds
// concurrently must leave lastFP equal to the live source fingerprint —
// under the old code one CAS could lose the interleaving and the
// fingerprint was never published, so the next query nuked the cache
// spuriously (and ensureFresh re-nuked on every subsequent query).
func TestConcurrentFullRebuildsPublishLiveFP(t *testing.T) {
	c := corpus()
	// A vanishing delta bound forces every non-empty refresh down the
	// full-rebuild path.
	m := mutManager(t, c, Options{MaxDeltaFraction: 1e-9})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	gi := geneWithTerms(t, c)
	targets := editableGenes(t, c, 5)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < 8; r++ {
			editGene(c, targets[r%5], fmt.Sprintf("fp-ll-%d", r))
			if _, err := m.RefreshSourceCtx(context.Background(), "LocusLink"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 8; r++ {
			editAnnotations(c, gi, fmt.Sprintf("fp-go-%d", r))
			if _, err := m.RefreshSourceCtx(context.Background(), "GO"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got, want := m.lastFP.Load(), m.sourceFingerprint(); got != want {
		t.Fatalf("lastFP = %x after concurrent full rebuilds, want the live fingerprint %x", got, want)
	}
	assertEquivalent(t, m, c)
}

// TestFeedConcurrentChurnOrdering: under concurrent multi-source churn a
// concept subscriber still observes strictly monotonic sequence numbers
// and exactly one event per refresh that touched its concept.
func TestFeedConcurrentChurnOrdering(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubscribeChanges(feed.Options{Concepts: []string{"Annotation"}, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	gi := geneWithTerms(t, c)
	const rounds = 5
	targets := editableGenes(t, c, rounds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			editGene(c, targets[r], fmt.Sprintf("cc-ll-%d", r))
			if _, err := m.RefreshSourceCtx(context.Background(), "LocusLink"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			editAnnotations(c, gi, fmt.Sprintf("cc-go-%d", r))
			if _, err := m.RefreshSourceCtx(context.Background(), "GO"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	got := drainFeed(sub)
	changes := 0
	var last uint64
	for _, ev := range got {
		if ev.Seq <= last {
			t.Fatalf("sequence not monotonic under churn: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		switch ev.Kind {
		case feed.KindChange:
			if ev.Source != "GO" {
				t.Fatalf("Annotation subscriber received a %s change", ev.Source)
			}
			changes++
		case feed.KindRebuild:
			// A concurrent interleaving may legitimately force a rebuild
			// (wildcard concept ⇒ delivered to every subscriber).
		default:
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
	}
	// Every GO refresh touched gi's annotations, so unless a rebuild
	// marker superseded some of them, one change event each. (Events that
	// matched only the Annotation filter are the subscriber's whole view;
	// published events for other concepts are legitimately unseen.)
	rebuilds := len(got) - changes
	if changes+rebuilds < rounds {
		t.Fatalf("observed %d changes + %d rebuilds, want at least %d events for %d GO refreshes",
			changes, rebuilds, rounds, rounds)
	}
	assertEquivalent(t, m, c)
}
