// Package feed is ANNODA's live change-feed hub: the push counterpart of
// the delta subsystem. The mediator publishes one event per source refresh
// at the same point it publishes the refreshed snapshot epoch (inside the
// epoch-writer critical section that also appends to the durable WAL), so
// notification order, epoch publication order and WAL order are one and
// the same order. Subscribers register with a concept filter and receive
// exactly the refreshes whose touched concepts intersect it, each stamped
// with a globally monotonic sequence number.
//
// Slow consumers are the design center. Every subscriber owns a bounded
// queue; when it fills, newly published events are folded into a single
// trailing overflow marker that carries how many events were lost and the
// fingerprint of the newest lost epoch — "you lost N events, resync from
// epoch X" — instead of growing without bound or dropping silently. The
// hub additionally retains a short history ring of published events so a
// reconnecting subscriber (SSE Last-Event-ID) can replay what it missed;
// a resume point older than the ring produces the same explicit overflow
// marker, never a silent gap.
package feed

import (
	"sync"
	"sync/atomic"
)

// Kind classifies a feed event.
type Kind uint8

const (
	// KindChange: one source refresh was absorbed; Concepts lists the
	// touched concepts, Upserted/Deleted the entity-level change counts.
	KindChange Kind = iota
	// KindRebuild: a refresh fell back to a full rebuild — everything may
	// have changed (Concepts is ["*"]); resync rather than patch.
	KindRebuild
	// KindOverflow: the subscriber's queue overflowed; Lost events were
	// dropped between the previous event and this marker. Fingerprint is
	// the newest lost epoch's fingerprint — the resync target.
	KindOverflow
	// KindAnswer: a standing query's answer changed (or Initial, its
	// baseline at registration). Text is the answer's canonical form.
	KindAnswer
	// KindSourceUp: a source that had been excluded from the fused world
	// (degraded-mode fusion) recovered and was re-admitted; the event
	// rides the same epoch publication that folded its data back in.
	KindSourceUp
)

// String names the kind the way the SSE endpoint frames it.
func (k Kind) String() string {
	switch k {
	case KindChange:
		return "change"
	case KindRebuild:
		return "rebuild"
	case KindOverflow:
		return "overflow"
	case KindAnswer:
		return "answer"
	case KindSourceUp:
		return "source-up"
	}
	return "unknown"
}

// Event is one feed notification. Which fields are meaningful depends on
// Kind; Seq and Kind are always set. Events are delivered by value — a
// subscriber may retain one indefinitely.
type Event struct {
	// Seq is the hub-global publication sequence number: strictly
	// monotonic across all events, so any gap is detectable by the
	// consumer even without an overflow marker.
	Seq  uint64
	Kind Kind

	// Source is the refreshed source (KindChange / KindRebuild).
	Source string
	// Concepts are the concepts the refresh touched; ["*"] means all
	// (full rebuild).
	Concepts []string
	// Fingerprint is the source-set fingerprint after the publication —
	// for overflow markers, the newest lost epoch (the resync target).
	Fingerprint uint64
	// Upserted / Deleted are the ChangeSet's entity-level counts.
	Upserted int
	Deleted  int
	// Summary optionally carries the encoded ChangeSet (the same pruned
	// self-contained form the durable WAL stores); only populated for
	// subscribers that asked for it.
	Summary []byte

	// Lost is how many events an overflow marker stands in for.
	Lost uint64

	// Query, Answers, Text describe a standing-query answer; Initial
	// marks the baseline pushed at registration.
	Query   string
	Answers int
	Text    string
	Initial bool
}

// DefaultBuffer is a subscriber's queue bound when Options.Buffer <= 0.
const DefaultBuffer = 64

// historySize is how many published events the hub retains for resume.
const historySize = 256

// Options configures one subscription.
type Options struct {
	// Concepts filters events: only those whose Concepts intersect it (or
	// carry the wildcard "*") are delivered. Empty means every event.
	Concepts []string
	// Buffer bounds the subscriber's queue (<= 0 selects DefaultBuffer).
	Buffer int
	// Summary requests the encoded ChangeSet payload on change events.
	Summary bool
	// Resume replays retained events with Seq > AfterSeq into the fresh
	// subscription before any live event; missed events older than the
	// retention ring surface as a leading overflow marker.
	Resume   bool
	AfterSeq uint64
}

// Counters is a snapshot of the hub's cumulative activity.
type Counters struct {
	Published   int64 // events published into the hub
	Delivered   int64 // events enqueued to subscriber queues
	Dropped     int64 // events folded into overflow markers (lost)
	Overflows   int64 // overflow markers created
	Answers     int64 // standing-query answer events delivered
	Subscribers int64 // currently registered subscribers
	Subscribed  int64 // subscriptions ever created
}

// Hub fans published events out to subscribers. Safe for concurrent use;
// the publisher (the mediator) additionally serializes Publish calls
// through its epoch mutex so sequence order equals epoch publication
// order.
type Hub struct {
	mu   sync.Mutex
	seq  uint64
	subs map[*Subscriber]struct{}
	// hist is the resume ring: the last historySize published events in
	// order (summaries stripped — they are re-derived per subscriber at
	// publish time only).
	hist []Event

	published  atomic.Int64
	delivered  atomic.Int64
	dropped    atomic.Int64
	overflows  atomic.Int64
	answers    atomic.Int64
	current    atomic.Int64
	subscribed atomic.Int64
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{subs: map[*Subscriber]struct{}{}}
}

// Seq returns the sequence number of the most recently published event
// (zero before the first).
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// Counters snapshots the hub's cumulative counters.
func (h *Hub) Counters() Counters {
	return Counters{
		Published:   h.published.Load(),
		Delivered:   h.delivered.Load(),
		Dropped:     h.dropped.Load(),
		Overflows:   h.overflows.Load(),
		Answers:     h.answers.Load(),
		Subscribers: h.current.Load(),
		Subscribed:  h.subscribed.Load(),
	}
}

// Publish assigns ev the next sequence number, records it in the resume
// ring, and enqueues it to every subscriber whose filter it matches. The
// summary closure is invoked at most once — and only when some matching
// subscriber requested ChangeSet summaries — so the encoding cost is paid
// exactly when someone will read it. Returns the assigned sequence. It
// never waits on a consumer: a full queue folds into its overflow marker,
// and the wake-up is a non-blocking send (wake).
func (h *Hub) Publish(ev Event, summary func() []byte) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	ev.Seq = h.seq
	h.published.Add(1)
	ev.Summary = nil
	h.hist = append(h.hist, ev)
	if len(h.hist) > historySize {
		h.hist = append(h.hist[:0], h.hist[len(h.hist)-historySize:]...)
	}
	var sum []byte
	haveSum := false
	for sub := range h.subs {
		if !sub.wants(ev) {
			continue
		}
		e := ev
		if sub.summary && summary != nil {
			if !haveSum {
				sum, haveSum = summary(), true
			}
			e.Summary = sum
		}
		sub.push(e)
	}
	return ev.Seq
}

// Subscribe registers a new subscriber. With Options.Resume, retained
// events after Options.AfterSeq are replayed into the queue before any
// live event, with an explicit overflow marker standing in for anything
// already aged out of the retention ring.
func (h *Hub) Subscribe(opts Options) *Subscriber {
	s := &Subscriber{
		hub:     h,
		summary: opts.Summary,
		max:     opts.Buffer,
		notify:  make(chan struct{}, 1),
	}
	if s.max <= 0 {
		s.max = DefaultBuffer
	}
	if len(opts.Concepts) > 0 {
		s.concepts = make(map[string]bool, len(opts.Concepts))
		for _, c := range opts.Concepts {
			s.concepts[c] = true
		}
	}
	h.subscribed.Add(1)
	h.current.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs[s] = struct{}{}
	afterSeq := opts.AfterSeq
	switch {
	case !opts.Resume || h.seq == afterSeq:
		return s
	case h.seq < afterSeq:
		// The client is ahead of this hub (server restarted); its whole
		// world view is unverifiable — tell it to resync.
		s.push(Event{Kind: KindOverflow, Seq: h.seq})
		return s
	}
	// When the resume point predates the ring (or the hub's history was
	// reset entirely), the gap is made explicit with a leading overflow
	// marker — a reconnecting client must never observe a silent hole.
	oldest := h.seq - uint64(len(h.hist)) + 1 // oldest retained seq
	if len(h.hist) == 0 || oldest > afterSeq+1 {
		lost := h.seq - afterSeq
		if len(h.hist) > 0 {
			lost = oldest - 1 - afterSeq
		}
		marker := Event{Kind: KindOverflow, Lost: lost}
		if len(h.hist) > 0 {
			marker.Seq = oldest - 1
			marker.Fingerprint = h.hist[0].Fingerprint
		} else {
			marker.Seq = h.seq
		}
		s.push(marker)
		h.overflows.Add(1)
		h.dropped.Add(int64(lost))
	}
	for _, ev := range h.hist {
		if ev.Seq > afterSeq && s.wants(ev) {
			s.push(ev)
		}
	}
	return s
}

// Subscriber is one bounded change-feed consumer. Producers enqueue via
// the hub; the consumer waits on Notify and drains with Next.
type Subscriber struct {
	hub      *Hub
	concepts map[string]bool // nil = every concept
	summary  bool
	max      int

	mu     sync.Mutex
	queue  []Event
	closed bool
	notify chan struct{}
}

// wants reports whether ev passes the subscriber's concept filter.
func (s *Subscriber) wants(ev Event) bool {
	if s.concepts == nil {
		return true
	}
	for _, c := range ev.Concepts {
		if c == "*" || s.concepts[c] {
			return true
		}
	}
	return false
}

// push enqueues ev, folding into an overflow marker when the queue is
// full: the marker occupies one slot past the bound and absorbs every
// further event until the consumer drains, so the queue never grows past
// max+1 and the loss is explicit (count + newest lost fingerprint). Order
// is preserved: events before the loss, the marker, then events enqueued
// after draining resumed.
func (s *Subscriber) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if n := len(s.queue); n >= s.max {
		if n > 0 && s.queue[n-1].Kind == KindOverflow {
			s.queue[n-1].Lost++
			s.queue[n-1].Seq = ev.Seq
			s.queue[n-1].Fingerprint = ev.Fingerprint
			s.hub.dropped.Add(1)
		} else {
			s.queue = append(s.queue, Event{
				Kind: KindOverflow, Seq: ev.Seq, Fingerprint: ev.Fingerprint, Lost: 1,
			})
			s.hub.overflows.Add(1)
			s.hub.dropped.Add(1)
		}
	} else {
		s.queue = append(s.queue, ev)
		s.hub.delivered.Add(1)
		if ev.Kind == KindAnswer {
			s.hub.answers.Add(1)
		}
	}
	s.mu.Unlock()
	s.wake()
}

// wake signals the consumer without ever blocking: notify holds one
// coalesced wake-up, and a send that finds it full is dropped, since the
// pending one already covers it. Publish reaches the consumer only
// through push and wake, so no consumer can stall the publisher.
func (s *Subscriber) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Send enqueues an event directly to this subscriber, bypassing the
// filter — the mediator pushes standing-query answers this way (they are
// per-subscription, not broadcast). Sequence numbers are the caller's:
// answers carry the seq of the refresh that triggered them.
func (s *Subscriber) Send(ev Event) { s.push(ev) }

// Notify returns the wake-up channel: it receives (capacity one,
// coalesced) after events are enqueued and after Close.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// Next pops the oldest queued event; ok is false when the queue is empty.
func (s *Subscriber) Next() (ev Event, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return Event{}, false
	}
	ev = s.queue[0]
	s.queue = s.queue[1:]
	return ev, true
}

// Closed reports whether the subscription was closed.
func (s *Subscriber) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close unregisters the subscriber and wakes its consumer. Idempotent;
// events published after Close are not delivered.
func (s *Subscriber) Close() {
	s.hub.mu.Lock()
	delete(s.hub.subs, s)
	s.hub.mu.Unlock()
	s.mu.Lock()
	wasOpen := !s.closed
	s.closed = true
	s.queue = nil
	s.mu.Unlock()
	if wasOpen {
		s.hub.current.Add(-1)
	}
	s.wake()
}
