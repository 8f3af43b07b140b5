package mediator

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/delta"
	"repro/internal/gml"
	"repro/internal/obs"
	"repro/internal/oem"
)

// RefreshResult reports what one RefreshSourceCtx call did.
type RefreshResult struct {
	Source     string
	OldVersion uint64
	NewVersion uint64
	// Upserted/Deleted/Total describe the computed ChangeSet (zero when
	// the refresh fell straight back to a full rebuild).
	Upserted int
	Deleted  int
	Total    int
	// Native: the wrapper emitted its own changelog (delta.Source) rather
	// than relying on the structural differ.
	Native bool
	// FullRebuild: the delta path was not taken; Reason says why. The
	// rebuild itself happens lazily, on the next query or snapshot use.
	FullRebuild bool
	Reason      string
	// Patched: a patched snapshot epoch was published (clone-patch-publish).
	Patched bool
	// Invalidated is the number of cached results dropped by
	// concept-scoped invalidation.
	Invalidated int
	Took        time.Duration
}

// RefreshSourceCtx refreshes one registered source and propagates the
// change as a delta: the old and new ANNODA-OML models are compared (or
// the wrapper's native changelog consulted), a clone of the current snapshot
// epoch is patched and published as the next epoch, and only cached
// results whose concepts the change touches are invalidated. When the
// delta is unavailable or too large the call degrades to the pre-delta
// behaviour — drop everything, rebuild on next use — so it is always safe
// to call.
//
// The refresh records into the request trace carried by ctx (or a fresh
// one when observability is on and ctx has none): its diff, patch,
// WAL-append, invalidation and standing-query stages show up as spans.
func (m *Manager) RefreshSourceCtx(ctx context.Context, name string) (*RefreshResult, error) {
	op := m.beginOp(ctx, "refresh", name)
	rr, err := m.refreshSource(name, op.tr)
	m.endOp(op, m.opRefreshDur, m.opRefreshErr, err)
	return rr, err
}

func (m *Manager) refreshSource(name string, tr *obs.Trace) (*RefreshResult, error) {
	w := m.reg.Get(name)
	if w == nil {
		return nil, fmt.Errorf("mediator: source %q not registered", name)
	}
	start := obs.Now()
	rr := &RefreshResult{Source: name, OldVersion: w.Version()}
	mp := m.gl.MappingFor(name)

	if m.cache == nil || mp == nil {
		// No cache means no snapshot and nothing to invalidate
		// selectively; an unmapped source never entered the fused view.
		w.Refresh()
		rr.NewVersion = w.Version()
		rr.FullRebuild = true
		rr.Reason = "delta maintenance needs the result cache and a mapped source"
		m.fullRebuilds.Inc()
		rr.Took = obs.Since(start)
		return rr, nil
	}

	release := m.gateRefresh()
	defer release()

	fullRebuild := func(reason string) (*RefreshResult, error) {
		rr.FullRebuild = true
		rr.Reason = reason
		m.rebuildFallback(name, reason, release, tr)
		rr.Took = obs.Since(start)
		return rr, nil
	}

	// The differ needs a baseline for the pre-refresh population. When the
	// current epoch is fresh it already records every entity's hash — the
	// old model never gets re-hashed (or even rebuilt). The epoch read is
	// lock-free: a sealed world is immutable.
	fpBefore := m.sourceFingerprint()
	var oldCounts map[uint64]int
	degradedBefore := false
	if ep := m.epoch.Load(); ep != nil && ep.fp == fpBefore {
		// For a source the epoch is missing (degraded-mode fusion) the
		// recorded counts are empty, so the diff below is pure upserts —
		// the refresh doubles as the source's re-admission.
		oldCounts = ep.w.HashCounts(name)
		degradedBefore = slices.Contains(ep.degraded, name)
	}
	var oldModel *oem.Graph
	if oldCounts == nil {
		var err error
		oldModel, err = w.Model()
		if err != nil {
			return nil, fmt.Errorf("mediator: source %s: %v", name, err)
		}
	}
	w.Refresh()
	rr.NewVersion = w.Version()
	newModel, err := m.sourceModel(context.Background(), w, tr)
	if err != nil {
		// Refreshed but unreadable; the fingerprint moved, so ensureFresh
		// will drop stale results on the next query.
		return nil, fmt.Errorf("mediator: source %s: %w", name, err)
	}
	fpAfter := m.sourceFingerprint()

	var cs *delta.ChangeSet
	if ds, ok := w.(delta.Source); ok {
		if native, ok := ds.Changes(rr.OldVersion); ok && native != nil {
			cs = native
			rr.Native = true
		}
	}
	if cs == nil {
		td := obs.Now()
		if oldCounts != nil {
			cs, err = delta.DiffAgainst(oldCounts, newModel, w.Name(), w.EntityLabel())
		} else {
			cs, err = delta.Diff(oldModel, newModel, w.Name(), w.EntityLabel())
		}
		tr.SpanNote(obs.StageDiff, td, name)
		if err != nil {
			return fullRebuild("diff failed: " + err.Error())
		}
	}
	rr.Upserted, rr.Deleted, rr.Total = len(cs.Upserted), len(cs.Deleted), cs.Total
	// Delta time is the one place the source's post-refresh population is
	// known without refetching; keep the statistics table's entity count
	// current even when the structural patch below bails out.
	m.srcStats.SetEntities(name, cs.Total)

	maxFrac := m.opts.MaxDeltaFraction
	if maxFrac <= 0 {
		maxFrac = DefaultMaxDeltaFraction
	}
	// Re-admitting a source the epoch is missing is all upserts by
	// construction — a "delta" of the whole population. That is still far
	// cheaper than rebuilding the whole multi-source world, so the
	// too-large bound does not apply to it.
	if cs.Fraction() > maxFrac && !degradedBefore {
		return fullRebuild(fmt.Sprintf("delta too large (%.0f%% of source changed, limit %.0f%%)",
			cs.Fraction()*100, maxFrac*100))
	}

	rr.Patched, rr.Invalidated, err = m.publishDelta(cs, mp, fpBefore, fpAfter, release, tr)
	if err != nil {
		return fullRebuild("snapshot patch failed: " + err.Error())
	}
	rr.Took = obs.Since(start)
	return rr, nil
}

// patched records in an epoch's stats that a change set left source with
// total entities.
func (s *Stats) patched(source string, total int) {
	s.Fetched[source] = total
	s.Kept[source] = total
}

// gateRefresh raises the refreshing gate and returns its idempotent
// release. From a source's version (or recovery-generation) bump until the
// change is fully propagated, concurrent queries must keep serving the
// pre-change world instead of reacting to the fingerprint move (ensureFresh
// would nuke the whole cache, pinEpoch would waste a full rebuild); the
// change becomes visible when publishDelta or rebuildFallback publishes the
// new fingerprint. Those two drop the gate early before re-evaluating
// standing queries against a fresh pin — pinEpoch refuses to see the
// post-change world while the gate is up.
func (m *Manager) gateRefresh() (release func()) {
	m.refreshing.Add(1)
	released := false
	return func() {
		if !released {
			released = true
			m.refreshing.Add(-1)
		}
	}
}

// publishDelta is the one clone-patch-publish step, shared by RefreshSourceCtx
// and probe re-admission. The serving epoch stays untouched (readers pinned
// to it keep a consistent pre-change world); when it still describes the
// world cs was computed against (fp == fpBefore — patching anything newer
// would double-apply) the delta is applied to a deep clone, which is frozen
// and published as the next epoch under fpAfter. The WAL append and the
// feed notification happen inside the same epochMu section, so epoch
// publication order == WAL order == feed sequence order by construction.
// Outside the lock the delta is counted, the cached results the source's
// concept could have staled are dropped, the fingerprint is published, and
// the standing queries the concept touches are re-evaluated. A failed
// patch retires the epoch and returns the error; the caller then takes
// rebuildFallback.
func (m *Manager) publishDelta(cs *delta.ChangeSet, mp *gml.SourceMapping, fpBefore, fpAfter uint64, release func(), tr *obs.Trace) (patched bool, invalidated int, err error) {
	name := mp.Source
	var published *snapshot // the patched epoch standing queries re-evaluate against
	var feedSeq uint64
	readmitted := false
	tp := obs.Now()
	m.epochMu.Lock()
	if cur := m.epoch.Load(); cur != nil && cur.fp == fpBefore {
		// A source the epoch was missing (degraded-mode fusion) leaves the
		// degraded set even with an empty population: the epoch now
		// reflects everything the source has.
		readmitted = slices.Contains(cur.degraded, name)
		next := &snapshot{w: cur.w, stats: cur.stats, fp: fpAfter, degraded: dropSource(cur.degraded, name)}
		if !cs.Empty() || readmitted {
			next.stats = cur.stats.clone()
			next.stats.DegradedSources = next.degraded
		}
		if !cs.Empty() {
			w, err := cur.w.Patch(cs, mp)
			if err != nil {
				// The half-applied copy is simply dropped; the published
				// epoch was never touched, but its fingerprint is stale
				// now, so retire it and rebuild lazily.
				m.epoch.Store(nil)
				m.epochMu.Unlock()
				return false, 0, err
			}
			next.w = w
			next.stats.Conflicts = w.Conflicts()
			next.stats.patched(name, cs.Total)
		}
		// An empty delta republishes the same sealed world under the new
		// fingerprint.
		m.publishLocked(next)
		if !cs.Empty() {
			m.persistDeltaLocked(cs, cur, next, tr)
			published = next
		} else if m.store != nil && m.diskEpoch.Load() == cur {
			// The store still describes this world; advance the marker so
			// a shutdown flush does not rewrite an identical checkpoint.
			m.diskEpoch.Store(next)
		}
		patched = true
	}
	// Empty deltas touch no concepts and publish no event.
	if !cs.Empty() {
		tf := obs.Now()
		feedSeq = m.publishChangeLocked(cs, mp.Concept, fpAfter)
		d := obs.Since(tf)
		tr.SpanDur(obs.StageFeedPublish, tf, d, "")
		if m.o != nil {
			m.o.M.FeedPubDur.Observe(d)
		}
	}
	if readmitted {
		// Announced after the change event carrying the source's data.
		// (An unpatched epoch keeps its degraded set; the re-admission then
		// happens on the lazy rebuild instead.)
		m.publishSourceUpLocked(name, fpAfter)
	}
	m.epochMu.Unlock()
	if patched {
		tr.SpanNote(obs.StageDeltaPatch, tp, fmt.Sprintf("%d changes", cs.Size()))
	}

	m.deltasApplied.Inc()
	m.entitiesPatched.Add(uint64(cs.Size()))

	// Concept-scoped invalidation: only results whose computation touched
	// this source's concept can be stale. Order matters — drop the stale
	// entries before publishing the new fingerprint, so no query can hit
	// them once ensureFresh stands down.
	if !cs.Empty() {
		ti := obs.Now()
		invalidated = m.cache.InvalidateTags([]string{mp.Concept})
		tr.SpanNote(obs.StageInvalidate, ti, fmt.Sprintf("%d dropped", invalidated))
		m.selectiveInvals.Add(uint64(invalidated))
	}
	m.lastFP.CompareAndSwap(fpBefore, fpAfter)

	// Re-evaluate the standing queries the concept touches: against the
	// epoch just published when one was patched (the immutable post-change
	// world, evaluated without any lock); otherwise drop the gate first so
	// a fresh pin builds the post-change world instead of serving the old.
	if feedSeq != 0 {
		ts := obs.Now()
		if published == nil {
			release()
		}
		m.evalStanding(feedSeq, []string{mp.Concept}, published)
		tr.Span(obs.StageStandingEval, ts)
	}
	return patched, invalidated, nil
}

// rebuildFallback is the one way out of incremental maintenance (delta
// unavailable, too large, or unpatchable): drop every cached result,
// publish the post-change fingerprint and a rebuild marker on the feed,
// and let the next pin rebuild the world — always safe, just not
// incremental.
func (m *Manager) rebuildFallback(name, reason string, release func(), tr *obs.Trace) {
	m.fullRebuilds.Inc()
	tr.Annotate("full rebuild: " + reason)
	m.epochMu.Lock()
	m.cache.Invalidate()
	// Publish the post-change fingerprint under the epoch writer lock. It
	// is computed inside the lock, after this change's version bump, so
	// whichever concurrent rebuilder stores last stores a fingerprint that
	// covers every completed bump — a load-then-CAS could be interleaved
	// so that neither fingerprint was ever published and the next
	// ensureFresh nuked spuriously.
	fp := m.sourceFingerprint()
	m.lastFP.Store(fp)
	// A rebuild invalidates everything, so the feed marker carries the
	// wildcard concept: every subscriber must resync.
	seq := m.publishRebuildLocked(name, fp)
	m.epochMu.Unlock()
	if seq != 0 {
		release()
		ts := obs.Now()
		m.evalStanding(seq, []string{"*"}, nil)
		tr.Span(obs.StageStandingEval, ts)
	}
}
