package feed

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drain pops everything queued right now.
func drain(s *Subscriber) []Event {
	var out []Event
	for {
		ev, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func TestPublishOrderAndFilter(t *testing.T) {
	h := NewHub()
	all := h.Subscribe(Options{})
	gene := h.Subscribe(Options{Concepts: []string{"Gene"}})
	disease := h.Subscribe(Options{Concepts: []string{"Disease"}})

	h.Publish(Event{Kind: KindChange, Source: "LocusLink", Concepts: []string{"Gene"}}, nil)
	h.Publish(Event{Kind: KindChange, Source: "GO", Concepts: []string{"Annotation"}}, nil)
	h.Publish(Event{Kind: KindRebuild, Source: "OMIM", Concepts: []string{"*"}}, nil)

	got := drain(all)
	if len(got) != 3 {
		t.Fatalf("unfiltered subscriber got %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	g := drain(gene)
	if len(g) != 2 || g[0].Source != "LocusLink" || g[1].Kind != KindRebuild {
		t.Fatalf("Gene subscriber got %+v, want LocusLink change + wildcard rebuild", g)
	}
	d := drain(disease)
	if len(d) != 1 || d[0].Kind != KindRebuild {
		t.Fatalf("Disease subscriber got %+v, want only the wildcard rebuild", d)
	}
}

func TestSummaryLazyAndScoped(t *testing.T) {
	h := NewHub()
	plain := h.Subscribe(Options{})
	rich := h.Subscribe(Options{Summary: true})
	calls := 0
	h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, func() []byte {
		calls++
		return []byte("payload")
	})
	if calls != 1 {
		t.Fatalf("summary closure ran %d times, want exactly 1", calls)
	}
	if ev, _ := plain.Next(); ev.Summary != nil {
		t.Fatalf("plain subscriber received a summary it never asked for")
	}
	if ev, _ := rich.Next(); string(ev.Summary) != "payload" {
		t.Fatalf("summary subscriber got %q", ev.Summary)
	}

	// Nobody interested → the closure must not run at all.
	plainOnly := NewHub()
	plainOnly.Subscribe(Options{})
	ran := false
	plainOnly.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, func() []byte {
		ran = true
		return nil
	})
	if ran {
		t.Fatalf("summary closure ran with no summary subscriber")
	}
}

func TestOverflowFoldsIntoExplicitMarker(t *testing.T) {
	// Subscribers that never call Next nor read Notify cannot stall the
	// publisher: every Publish returns, and for each of them delivered +
	// dropped covers every published event. (First: with a blocking wake
	// the cases below would hang instead of failing.)
	const stalled, events = 4, 1000
	h := NewHub()
	for i := 0; i < stalled; i++ {
		h.Subscribe(Options{Buffer: 8})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < events; i++ {
			h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked on subscribers that never drain")
	}
	c := h.Counters()
	if c.Published != events || c.Delivered+c.Dropped != stalled*c.Published {
		t.Fatalf("delivered %d + dropped %d, want %d subscribers x %d published",
			c.Delivered, c.Dropped, stalled, c.Published)
	}

	h = NewHub()
	s := h.Subscribe(Options{Buffer: 3})
	for i := 1; i <= 10; i++ {
		h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}, Fingerprint: uint64(i)}, nil)
	}
	got := drain(s)
	if len(got) != 4 {
		t.Fatalf("queue drained %d events, want 3 + marker", len(got))
	}
	for i := 0; i < 3; i++ {
		if got[i].Kind != KindChange || got[i].Seq != uint64(i+1) {
			t.Fatalf("event %d = %+v, want change seq %d", i, got[i], i+1)
		}
	}
	m := got[3]
	if m.Kind != KindOverflow || m.Lost != 7 || m.Seq != 10 || m.Fingerprint != 10 {
		t.Fatalf("marker = %+v, want overflow lost=7 seq=10 fp=10", m)
	}
	// No silent gap: delivered + lost covers every published event.
	c = h.Counters()
	if c.Delivered+c.Dropped != c.Published {
		t.Fatalf("delivered %d + dropped %d != published %d", c.Delivered, c.Dropped, c.Published)
	}
	if c.Overflows != 1 {
		t.Fatalf("overflows = %d, want 1", c.Overflows)
	}

	// After draining, delivery resumes normally.
	h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, nil)
	if ev, ok := s.Next(); !ok || ev.Kind != KindChange || ev.Seq != 11 {
		t.Fatalf("post-drain event = %+v, want change seq 11", ev)
	}
}

func TestResumeReplaysAndMarksAgedOutGap(t *testing.T) {
	h := NewHub()
	for i := 0; i < 10; i++ {
		h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, nil)
	}
	// Everything still retained → plain replay, no marker.
	s := h.Subscribe(Options{Resume: true, AfterSeq: 7})
	got := drain(s)
	if len(got) != 3 || got[0].Seq != 8 || got[2].Seq != 10 {
		t.Fatalf("resume after 7 got %+v, want seqs 8..10", got)
	}

	// Push the ring past retention, then resume from before the ring.
	for i := 0; i < historySize; i++ {
		h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}, Fingerprint: 42}, nil)
	}
	s2 := h.Subscribe(Options{Resume: true, AfterSeq: 2, Buffer: historySize + 8})
	got2 := drain(s2)
	if len(got2) != historySize+1 {
		t.Fatalf("aged-out resume got %d events, want marker + %d retained", len(got2), historySize)
	}
	if got2[0].Kind != KindOverflow || got2[0].Lost != 8 {
		t.Fatalf("leading marker = %+v, want overflow lost=8 (seqs 3..10 aged out)", got2[0])
	}
	if got2[1].Seq != 11 || got2[len(got2)-1].Seq != 10+historySize {
		t.Fatalf("replayed range %d..%d, want 11..%d", got2[1].Seq, got2[len(got2)-1].Seq, 10+historySize)
	}

	// Resume point ahead of the hub (server restarted) → resync marker.
	s3 := h.Subscribe(Options{Resume: true, AfterSeq: 1 << 40})
	got3 := drain(s3)
	if len(got3) != 1 || got3[0].Kind != KindOverflow {
		t.Fatalf("future resume got %+v, want a single resync marker", got3)
	}
}

func TestCloseStopsDeliveryAndWakes(t *testing.T) {
	h := NewHub()
	s := h.Subscribe(Options{})
	h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, nil)
	s.Close()
	if !s.Closed() {
		t.Fatalf("Closed() = false after Close")
	}
	select {
	case <-s.Notify():
	default:
		t.Fatalf("Close did not wake the consumer")
	}
	h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, nil)
	if _, ok := s.Next(); ok {
		t.Fatalf("closed subscriber still received events")
	}
	if c := h.Counters(); c.Subscribers != 0 || c.Subscribed != 1 {
		t.Fatalf("counters after close = %+v", c)
	}
	s.Close() // idempotent
}

func TestAnswerEventsCountAndBypassFilter(t *testing.T) {
	h := NewHub()
	s := h.Subscribe(Options{Concepts: []string{"Disease"}})
	s.Send(Event{Kind: KindAnswer, Seq: 9, Query: "q", Text: "t", Initial: true})
	ev, ok := s.Next()
	if !ok || ev.Kind != KindAnswer || !ev.Initial {
		t.Fatalf("Send did not bypass the concept filter: %+v", ev)
	}
	if c := h.Counters(); c.Answers != 1 {
		t.Fatalf("answers counter = %d, want 1", c.Answers)
	}
}

// TestConcurrentPublishConsume exercises publish/consume/close interleaving
// under the race detector: every subscriber's observed sequence must be
// strictly increasing, and accounting must balance.
func TestConcurrentPublishConsume(t *testing.T) {
	h := NewHub()
	const subs, events = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, subs)
	for i := 0; i < subs; i++ {
		sub := h.Subscribe(Options{Buffer: 16})
		wg.Add(1)
		go func(sub *Subscriber) {
			defer wg.Done()
			var last uint64
			for {
				<-sub.Notify()
				for {
					ev, ok := sub.Next()
					if !ok {
						break
					}
					if ev.Seq <= last {
						errs <- fmt.Errorf("seq went backwards: %d after %d", ev.Seq, last)
						return
					}
					last = ev.Seq
				}
				if sub.Closed() {
					return
				}
			}
		}(sub)
	}
	var pubWG sync.WaitGroup
	for p := 0; p < 2; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for i := 0; i < events; i++ {
				h.Publish(Event{Kind: KindChange, Concepts: []string{"Gene"}}, nil)
			}
		}()
	}
	pubWG.Wait()
	closeAll(h) // wakes the consumers

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := h.Counters()
	if c.Published != 2*events {
		t.Fatalf("published = %d, want %d", c.Published, 2*events)
	}
}

func closeAll(h *Hub) {
	h.mu.Lock()
	subs := make([]*Subscriber, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// BenchmarkNotifyFanout publishes one change event per iteration and waits
// until every subscriber's consumer goroutine has drained it: the time is
// publish-to-consumed, not just the enqueue.
func BenchmarkNotifyFanout(b *testing.B) {
	for _, subs := range []int{100, 1000} {
		b.Run(fmt.Sprint(subs), func(b *testing.B) {
			h := NewHub()
			var consumed atomic.Int64
			var wg sync.WaitGroup
			for range subs {
				s := h.Subscribe(Options{Buffer: 256})
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						for _, ok := s.Next(); ok; _, ok = s.Next() {
							consumed.Add(1)
						}
						if s.Closed() {
							return
						}
						<-s.Notify()
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish(Event{
					Kind: KindChange, Source: "GO",
					Concepts: []string{"Annotation"}, Fingerprint: uint64(i + 1),
				}, nil)
				for consumed.Load() < int64(subs)*int64(i+1) {
					runtime.Gosched()
				}
			}
			b.StopTimer()
			closeAll(h)
			wg.Wait()
		})
	}
}
