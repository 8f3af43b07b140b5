package mediator

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"repro/internal/delta"
	"repro/internal/feed"
	"repro/internal/lorel"
	"repro/internal/oem"
)

// This file is the mediator side of the live change feed (internal/feed):
// RefreshSourceCtx publishes one event per refresh into the hub from inside
// the same epoch-writer critical section that publishes the snapshot epoch
// and appends the delta to the WAL, so feed order == epoch publication
// order == WAL order. Standing queries ride on top: a compiled snapshot-
// safe plan re-evaluated against the freshly published epoch whenever a
// refresh touches one of its concepts, pushing an answer only when the
// answer's canonical text actually changed.

// ErrFeedDisabled reports that the manager runs with DisableCache: without
// the cache there are no snapshot epochs, hence nothing to subscribe to.
var ErrFeedDisabled = errors.New("mediator: change feed requires the result cache (manager runs with DisableCache)")

// SubscribeChanges registers a live change-feed subscription (see
// feed.Options for filtering, buffering, resume). The caller must Close
// the subscriber when done.
func (m *Manager) SubscribeChanges(opts feed.Options) (*feed.Subscriber, error) {
	if m.hub == nil {
		return nil, ErrFeedDisabled
	}
	return m.hub.Subscribe(opts), nil
}

// publishChangeLocked publishes one refresh's ChangeSet into the feed hub.
// m.epochMu must be held: the hub assigns the sequence number inside the
// same critical section that published the epoch and appended the WAL
// record, which is what makes "notification order == publication order ==
// WAL order" a guarantee rather than a likelihood. The ChangeSet summary
// is encoded lazily — only when some matching subscriber asked for it —
// reusing the exact WAL encoding (delta.EncodeChangeSet).
func (m *Manager) publishChangeLocked(cs *delta.ChangeSet, concept string, fp uint64) uint64 {
	if m.hub == nil {
		return 0
	}
	return m.hub.Publish(feed.Event{
		Kind:        feed.KindChange,
		Source:      cs.Source,
		Concepts:    []string{concept},
		Fingerprint: fp,
		Upserted:    len(cs.Upserted),
		Deleted:     len(cs.Deleted),
	}, func() []byte {
		var buf bytes.Buffer
		if err := delta.EncodeChangeSet(&buf, cs); err != nil {
			return nil
		}
		return buf.Bytes()
	})
}

// publishRebuildLocked publishes a full-rebuild marker: every concept may
// have changed, so the event carries the wildcard concept and subscribers
// of any filter receive it. m.epochMu must be held.
func (m *Manager) publishRebuildLocked(source string, fp uint64) uint64 {
	if m.hub == nil {
		return 0
	}
	return m.hub.Publish(feed.Event{
		Kind:        feed.KindRebuild,
		Source:      source,
		Concepts:    []string{"*"},
		Fingerprint: fp,
	}, nil)
}

// publishSourceUpLocked publishes a source-up marker: a source the fused
// epoch had been missing recovered and its data was folded back in by the
// epoch published in this same critical section. The event carries the
// wildcard concept — answers of every shape may change when a whole
// source's population (re)appears. m.epochMu must be held.
func (m *Manager) publishSourceUpLocked(source string, fp uint64) uint64 {
	if m.hub == nil {
		return 0
	}
	return m.hub.Publish(feed.Event{
		Kind:        feed.KindSourceUp,
		Source:      source,
		Concepts:    []string{"*"},
		Fingerprint: fp,
	}, nil)
}

// StandingQuery is a registered continuous query: after every refresh
// whose touched concepts intersect the query's concept tags, the mediator
// re-evaluates the compiled plan against the freshly published epoch and
// pushes a KindAnswer event to the subscriber iff the answer's canonical
// text changed since the last push. Only queries the epoch-independent
// routing rules admit are accepted, and every evaluation asks the full
// decision of the epoch it is handed (see snapshotPathDecision) — the
// condition under which the pushed answer is byte-identical to a fresh
// Query on the same world; an epoch that declines costs that round one trip
// through queryCompute instead.
type StandingQuery struct {
	m     *Manager
	sub   *feed.Subscriber
	q     *lorel.Query
	an    *analysis
	canon string
	plan  *lorel.Plan
	tags  []string

	mu       sync.Mutex
	started  bool // baseline (or first refresh answer) delivered
	lastSeq  uint64
	lastText string
}

// Cancel unregisters the standing query; no further answers are pushed.
func (sq *StandingQuery) Cancel() {
	sq.m.standingMu.Lock()
	delete(sq.m.standingQs, sq)
	sq.m.standingMu.Unlock()
}

// AddStandingQuery parses, analyzes and compiles src as a standing query
// pushing answers to sub. The query must be snapshot-evaluable: pushdown
// would make the pushed answer diverge from a fresh Query, which would
// silently break the "answer changed" contract. A baseline answer
// (Initial: true) is pushed immediately so the subscriber starts from a
// known state.
func (m *Manager) AddStandingQuery(sub *feed.Subscriber, src string) (*StandingQuery, error) {
	if m.hub == nil {
		return nil, ErrFeedDisabled
	}
	q, err := lorel.Parse(src)
	if err != nil {
		return nil, err
	}
	canon := q.String()
	an, err := m.analyze(q)
	if err != nil {
		return nil, err
	}
	if d := m.snapshotPathDecision(an, q, nil); !d.safe {
		return nil, fmt.Errorf("mediator: standing query %q is not snapshot-safe (%s); only snapshot-evaluable queries can be watched", canon, d.reason)
	}
	plan, err := m.planFor(q, canon)
	if err != nil {
		return nil, err
	}
	sq := &StandingQuery{m: m, sub: sub, q: q, an: an, canon: canon, plan: plan, tags: an.cacheTags()}

	// Register before the baseline evaluation: a refresh that lands in
	// between will re-evaluate (and, with its higher sequence, win over
	// the baseline), so the subscriber never misses the first change.
	m.standingMu.Lock()
	if m.standingQs == nil {
		m.standingQs = map[*StandingQuery]struct{}{}
	}
	m.standingQs[sq] = struct{}{}
	m.standingMu.Unlock()

	seq := m.hub.Seq()
	ep, _, err := m.pinEpoch()
	if err == nil {
		err = sq.eval(seq, ep, true)
	}
	if err != nil {
		sq.Cancel()
		return nil, err
	}
	return sq, nil
}

// eval evaluates the standing query against a pinned epoch — or, when that
// epoch declines it, the way a fresh Query would be computed — and delivers
// the outcome.
func (sq *StandingQuery) eval(seq uint64, ep *snapshot, initial bool) error {
	var res *lorel.Result
	var err error
	if d := sq.m.snapshotPathDecision(sq.an, sq.q, ep); d.safe {
		res, _, err = sq.m.evalEpoch(ep, sq.plan, d, nil, nil)
	} else {
		res, _, err = sq.m.queryCompute(sq.q, sq.canon, sq.an, nil, nil)
	}
	if err != nil {
		return err
	}
	sq.deliver(seq, ep.fp, res, oem.CanonicalText(res.Graph, "answer", res.Answer), initial)
	return nil
}

// intersects reports whether the standing query's concept tags intersect
// the touched concepts (either side's "*" matches everything).
func (sq *StandingQuery) intersects(concepts []string) bool {
	for _, c := range concepts {
		for _, t := range sq.tags {
			if c == "*" || t == "*" || c == t {
				return true
			}
		}
	}
	return false
}

// deliver records an evaluation outcome and pushes an answer event when
// the canonical text changed (or this is the very first answer). Stale
// evaluations — a refresh that published before one that already
// delivered — are discarded by sequence number.
func (sq *StandingQuery) deliver(seq, fp uint64, res *lorel.Result, text string, initial bool) {
	sq.mu.Lock()
	if sq.started && seq < sq.lastSeq {
		sq.mu.Unlock()
		return
	}
	changed := !sq.started || text != sq.lastText
	sq.started = true
	sq.lastSeq = seq
	sq.lastText = text
	sq.mu.Unlock()
	if !changed {
		return
	}
	sq.sub.Send(feed.Event{
		Kind:        feed.KindAnswer,
		Seq:         seq,
		Fingerprint: fp,
		Query:       sq.canon,
		Answers:     res.Size(),
		Text:        text,
		Initial:     initial,
	})
}

// standingMatching snapshots the registered standing queries whose tags
// intersect the touched concepts.
func (m *Manager) standingMatching(concepts []string) []*StandingQuery {
	m.standingMu.Lock()
	defer m.standingMu.Unlock()
	var out []*StandingQuery
	for sq := range m.standingQs {
		if sq.intersects(concepts) {
			out = append(out, sq)
		}
	}
	return out
}

// evalStanding re-evaluates the standing queries whose tags intersect the
// touched concepts, against ep — the epoch the triggering refresh just
// published — or, when the refresh published none (full rebuilds,
// stale-epoch deltas; ep == nil), against a freshly pinned one. In the
// fresh case the caller must have released the refreshing gate first, or
// pinEpoch would keep serving the pre-refresh epoch. Runs outside epochMu:
// the epoch is immutable, so holding the writer lock during evaluation
// would serialize refreshes behind query cost for nothing.
func (m *Manager) evalStanding(seq uint64, concepts []string, ep *snapshot) {
	qs := m.standingMatching(concepts)
	if len(qs) == 0 {
		return
	}
	if ep == nil {
		var err error
		if ep, _, err = m.pinEpoch(); err != nil {
			return
		}
	}
	for _, sq := range qs {
		_ = sq.eval(seq, ep, false) // a failing standing query pushes nothing
	}
}
