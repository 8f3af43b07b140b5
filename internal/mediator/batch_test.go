package mediator

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/oem"
)

func TestAskBatchMatchesIndividualQueries(t *testing.T) {
	c := corpus()
	m := manager(t, c, Options{})
	queries := []string{
		snapshotQ,
		`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`,
		`select G from ANNODA-GML.Gene G where exists G.Disease`, // prunes GO: snapshot-safe under a mask
		`select G from ANNODA-GML.Gene G where G.GeneID > 0`,     // not snapshot-safe: pushes down
	}
	answers, agg, err := m.AskBatchCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(queries) {
		t.Fatalf("got %d answers for %d queries", len(answers), len(queries))
	}
	if agg.BatchQuestions != len(queries) {
		t.Errorf("BatchQuestions = %d, want %d", agg.BatchQuestions, len(queries))
	}
	if !strings.Contains(agg.String(), "batch: 4 questions") {
		t.Errorf("aggregate Stats.String does not report the batch:\n%s", agg.String())
	}
	single := manager(t, c, Options{})
	for i, q := range queries {
		if answers[i].Err != nil {
			t.Fatalf("batch answer %d errored: %v", i, answers[i].Err)
		}
		res, _, err := single.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		want := oem.CanonicalText(res.Graph, "answer", res.Answer)
		got := oem.CanonicalText(answers[i].Result.Graph, "answer", answers[i].Result.Answer)
		if got != want {
			t.Errorf("batch answer %d differs from individual query %q", i, q)
		}
	}
	// The snapshot-safe questions must have been answered eval-only, the
	// pruning one under a mask; the pushdown one by the full Query path.
	if !answers[0].Stats.SnapshotUsed || !answers[1].Stats.SnapshotUsed || !answers[2].Stats.SnapshotUsed {
		t.Error("snapshot-safe batch questions missed the pinned-epoch path")
	}
	if got := answers[2].Stats.Masked; !slices.Equal(got, []string{"Annotation"}) {
		t.Errorf("pruning question masked %v, want [Annotation]", got)
	}
	if answers[3].Stats.SnapshotUsed {
		t.Error("pushdown question wrongly answered from the full snapshot")
	}
}

func TestAskBatchPartialFailure(t *testing.T) {
	m := manager(t, corpus(), Options{})
	answers, _, err := m.AskBatchCtx(context.Background(), []string{snapshotQ, "select from where nonsense"})
	if err != nil {
		t.Fatal(err)
	}
	if answers[0].Err != nil {
		t.Errorf("well-formed question failed: %v", answers[0].Err)
	}
	if answers[1].Err == nil {
		t.Error("malformed question did not fail its answer")
	}
	if _, _, err := m.AskBatchCtx(context.Background(), nil); err == nil {
		t.Error("empty batch did not error")
	}
}

func TestAskBatchDisabledCache(t *testing.T) {
	m := manager(t, corpus(), Options{DisableCache: true})
	answers, agg, err := m.AskBatchCtx(context.Background(), []string{snapshotQ, snapshotQ})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a.Err != nil {
			t.Fatalf("answer %d: %v", i, a.Err)
		}
		if a.Stats.SnapshotUsed {
			t.Error("DisableCache batch cannot use the snapshot path")
		}
	}
	if agg.BatchQuestions != 2 {
		t.Errorf("BatchQuestions = %d, want 2", agg.BatchQuestions)
	}
}

// TestPinnedEpochServesPreRefreshWorld: a reader pinned to an epoch keeps
// the pre-refresh world even while RefreshSourceCtx publishes new epochs —
// and, unlike the retired read-lock design, the pinned reader does not
// block the refresh (this test would deadlock under the old contract,
// because fn waits for a refresh that would have needed fn's read lock).
func TestPinnedEpochServesPreRefreshWorld(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	sym := c.Genes[3].Symbol
	descQ := func(g *oem.Graph) string {
		root := g.Root("ANNODA-GML")
		for _, oid := range g.Children(root, "Gene") {
			if g.StringUnder(oid, "Symbol") == sym {
				return g.StringUnder(oid, "Description")
			}
		}
		return ""
	}
	var before string
	err := m.WithFusedGraph(func(g *oem.Graph, _ *Stats) error {
		before = descQ(g)
		// Refresh from another goroutine while this reader holds its
		// pinned epoch; wait for the refresh to complete mid-read.
		done := make(chan error, 1)
		go func() {
			corpusMu.Lock()
			c.Genes[3].Description = "EPOCH-EDITED"
			corpusMu.Unlock()
			_, err := m.RefreshSourceCtx(context.Background(), "LocusLink")
			done <- err
		}()
		if err := <-done; err != nil {
			return err
		}
		// The refresh has published a new epoch; this reader's pinned
		// world must still answer with the pre-refresh value.
		if got := descQ(g); got != before {
			t.Errorf("pinned epoch changed mid-read: %q -> %q", before, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if before == "EPOCH-EDITED" {
		t.Fatal("test setup: pre-refresh description already edited")
	}
	// A fresh pin observes the refreshed world.
	g, _, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	if got := descQ(g); got != "EPOCH-EDITED" {
		t.Errorf("post-refresh pin sees %q, want the refreshed description", got)
	}
	if n := metric(m, "annoda_epochs_published_total"); n < 2 {
		t.Errorf("epochs published = %d, want >= 2 (build + patch)", n)
	}
	if metric(m, "annoda_epoch_pins_total") == 0 {
		t.Error("epoch pins = 0, want > 0")
	}
}

// TestConcurrentAskBatchAndRefresh hammers Ask, AskBatchCtx and FusedGraph
// readers against a stream of RefreshSourceCtx publications under -race: no
// error, no empty world, no torn reads.
func TestConcurrentAskBatchAndRefresh(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		snapshotQ,
		`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				answers, _, err := m.AskBatchCtx(context.Background(), queries)
				if err != nil {
					t.Error(err)
					return
				}
				for _, a := range answers {
					if a.Err != nil {
						t.Error(a.Err)
						return
					}
					if a.Result.Size() == 0 {
						t.Error("empty batch answer during refresh churn")
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.WithFusedGraph(func(g *oem.Graph, _ *Stats) error {
					if g.Len() == 0 {
						return fmt.Errorf("empty fused epoch")
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 6; r++ {
		corpusMu.Lock()
		c.Genes[20+r].Description = fmt.Sprintf("churn %d", r)
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

// askBatchQuestions are 64 distinct snapshot-safe questions: snapshotQ's
// symbols plus a bit-selected set of structural conjuncts, none of them
// pushdown-eligible.
func askBatchQuestions() []string {
	extra := [...]string{
		" and exists G.Annotation.GoID", " and exists G.Annotation.Evidence",
		" and exists G.Annotation.Term", " and exists G.Links",
		" and exists G.Links.GO", " and not exists G.Disease.MimNumber",
	}
	qs := make([]string, 1<<len(extra))
	for i := range qs {
		var sb strings.Builder
		sb.WriteString(`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`)
		for bit := range extra {
			if i&(1<<bit) != 0 {
				sb.WriteString(extra[bit])
			}
		}
		qs[i] = sb.String()
	}
	return qs
}

// BenchmarkAskBatch answers 64 distinct questions per iteration over a
// 1k-gene corpus, with a result cache too small to hold them: as one batch
// on one pinned epoch (8 workers), or one Query after another.
func BenchmarkAskBatch(b *testing.B) {
	cfg := datagen.DefaultConfig()
	cfg.Genes = 1000
	c := datagen.Generate(cfg)
	queries := askBatchQuestions()
	for _, tc := range []struct {
		name string
		ask  func(m *Manager) error
	}{
		{"1k/batch", func(m *Manager) error {
			answers, _, err := m.AskBatchCtx(context.Background(), queries)
			if err != nil {
				return err
			}
			for i, a := range answers {
				if a.Err != nil {
					return a.Err
				}
				if !a.Stats.SnapshotUsed {
					return fmt.Errorf("batch question %d missed the pinned epoch", i)
				}
			}
			return nil
		}},
		{"1k/sequential", func(m *Manager) error {
			for _, q := range queries {
				if _, _, err := m.QueryString(q); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := manager(b, c, Options{CacheSize: 16, Workers: 8})
			if _, _, err := m.QueryString(queries[0]); err != nil { // builds the epoch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.ask(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
