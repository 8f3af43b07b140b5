package mediator

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/delta"
	"repro/internal/feed"
	"repro/internal/oem"
	"repro/internal/snapstore"
)

// TestWriterOneOrder: under concurrent LocusLink and GO refreshes with
// persistence on, the feed, the WAL and the restored world agree. Every
// checkpoint after the first is written by exactly one patched refresh
// (the WAL policy never folds at this size), so the patched change events
// in sequence order are checkpoint 1's WAL records, then for each later
// checkpoint the one event that wrote it followed by that checkpoint's WAL
// records. In particular the change events published after the newest
// checkpoint name its WAL records' sources, in order. A fresh manager
// restoring the store lands on the live world.
func TestWriterOneOrder(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	open := func() *Manager {
		m := mutManager(t, c, Options{})
		st, err := snapstore.Open(dir, snapstore.Options{Keep: 1000})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if err := m.EnablePersistence(st, PersistPolicy{}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open()
	if _, err := m.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubscribeChanges(feed.Options{Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Each source's refreshes run in order on one goroutine, so the i-th
	// change event of a source is the i-th of its refreshes that published
	// one: a non-empty delta that did not fall back to a rebuild.
	var mu sync.Mutex
	patched := map[string][]bool{}
	refreshRecorded := func(source string) {
		rr, err := m.RefreshSourceCtx(context.Background(), source)
		if err != nil {
			t.Error(err)
			return
		}
		if !rr.FullRebuild && rr.Upserted+rr.Deleted > 0 {
			mu.Lock()
			patched[source] = append(patched[source], rr.Patched)
			mu.Unlock()
		}
	}
	gi := geneWithTerms(t, c)
	const rounds = 6
	targets := editableGenes(t, c, rounds+1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			editGene(c, targets[r], fmt.Sprintf("order-ll-%d", r))
			refreshRecorded("LocusLink")
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			editAnnotations(c, gi, fmt.Sprintf("order-go-%d", r))
			refreshRecorded("GO")
		}
	}()
	wg.Wait()
	// Settle: a refresh that published no epoch left the serving one
	// stale, and its lazy rebuild never reaches the store. One pin and a
	// patched refresh of each source bring the store level with the live
	// world, and the newest checkpoint's WAL non-empty.
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	editGene(c, targets[rounds], "order-ll-settle")
	refreshRecorded("LocusLink")
	editAnnotations(c, gi, "order-go-settle")
	refreshRecorded("GO")
	if t.Failed() {
		t.FailNow()
	}

	var events []string // sources of the patched change events, in seq order
	seen := map[string]int{}
	for _, ev := range drainFeed(sub) {
		switch ev.Kind {
		case feed.KindChange:
			i := seen[ev.Source]
			seen[ev.Source]++
			if i >= len(patched[ev.Source]) {
				t.Fatalf("%s change event %d (seq %d) matches no refresh", ev.Source, i, ev.Seq)
			}
			if patched[ev.Source][i] {
				events = append(events, ev.Source)
			}
		case feed.KindRebuild:
		default:
			t.Fatalf("unexpected %v event (seq %d)", ev.Kind, ev.Seq)
		}
	}
	for src, ps := range patched {
		if seen[src] != len(ps) {
			t.Fatalf("%s: %d change events for %d refreshes that published one", src, seen[src], len(ps))
		}
	}

	st, err := snapstore.Open(dir, snapstore.Options{Keep: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seqs, err := st.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, seq := range seqs {
		if i > 0 {
			// The patched refresh that wrote this checkpoint: its change is
			// folded in, not logged.
			want = append(want, "(checkpoint)")
		}
		recs, truncated, err := st.ReadWAL(seq)
		if err != nil || truncated {
			t.Fatalf("WAL %d: truncated %v, err %v", seq, truncated, err)
		}
		if i == len(seqs)-1 && len(recs) == 0 {
			t.Fatalf("newest checkpoint %d has no WAL records; the settle refreshes logged nothing", seq)
		}
		for _, rec := range recs {
			cs, err := delta.DecodeChangeSet(bytes.NewReader(rec))
			if err != nil {
				t.Fatalf("WAL %d: %v", seq, err)
			}
			want = append(want, cs.Source)
		}
	}
	if len(events) != len(want) {
		t.Fatalf("%d patched change events, checkpoints and WAL records account for %d\nevents: %v\nstore:  %v",
			len(events), len(want), events, want)
	}
	for i := range want {
		if want[i] != "(checkpoint)" && want[i] != events[i] {
			t.Fatalf("patched change event %d is a %s refresh, the store logged %s there\nevents: %v\nstore:  %v",
				i, events[i], want[i], events, want)
		}
	}

	live := worldText(t, m)
	fresh := open()
	rr, err := fresh.LoadSnapshotCtx(context.Background())
	if err != nil || !rr.Restored {
		t.Fatalf("restore: %+v, err %v", rr, err)
	}
	if got := worldText(t, fresh); got != live {
		t.Fatalf("restored world diverges from the live one\n--- restored ---\n%s--- live ---\n%s", clip(got), clip(live))
	}
}

// TestNotifiedSubscriberReadsInvalidated: a subscriber that re-asks a
// cached question the moment a change event for its concept arrives is
// answered from the changed world. The refresh drops the question's cache
// entry and publishes the fingerprint before it publishes the event; the
// other order leaves a window in which the re-ask hits the stale entry.
func TestNotifiedSubscriberReadsInvalidated(t *testing.T) {
	c := corpus()
	m := mutManager(t, c, Options{})
	const q = `select G from ANNODA-GML.Gene G`
	answer := func() string {
		res, _, err := m.QueryString(q)
		if err != nil {
			t.Error(err)
			return ""
		}
		return oem.CanonicalText(res.Graph, "answer", res.Answer)
	}
	sub, err := m.SubscribeChanges(feed.Options{Concepts: []string{"Gene"}, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	reasked := make(chan string)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-sub.Notify():
			case <-done:
				return
			}
			for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
				if ev.Kind != feed.KindChange {
					continue
				}
				select {
				case reasked <- answer():
				case <-done:
					return
				}
			}
		}
	}()
	defer func() { close(done); <-exited }()

	gi := editableGenes(t, c, 1)[0]
	const rounds = 20
	for r := 0; r < rounds; r++ {
		before := answer() // and cached
		editGene(c, gi, fmt.Sprintf("notify-%d", r))
		rr := refresh(t, m, "LocusLink")
		if rr.FullRebuild || !rr.Patched {
			t.Fatalf("round %d: refresh did not patch: %+v", r, rr)
		}
		got := <-reasked
		after := answer()
		if after == before {
			t.Fatalf("round %d: the edit did not change the answer; the test exercises nothing", r)
		}
		if got != after {
			t.Fatalf("round %d: the notified subscriber was served the pre-change answer", r)
		}
	}
}
