package mediator

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/delta"
	"repro/internal/feed"
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
	return sync.OnceFunc(func() { m.refreshing.Add(-1) })
}

// publishDelta is the one clone-patch-publish step, shared by RefreshSourceCtx
// and probe re-admission. When the serving epoch still describes the world
// cs was computed against (fp == fpBefore — patching anything newer would
// double-apply), cs patches a copy of it, published as the next epoch under
// fpAfter by one write that also logs cs, drops the cached results of the
// source's concept, publishes fpAfter and announces the change. Standing
// queries are re-evaluated after it. A failed patch retires the epoch and
// returns the error; the caller then takes rebuildFallback.
func (m *Manager) publishDelta(cs *delta.ChangeSet, mp *gml.SourceMapping, fpBefore, fpAfter uint64, release func(), tr *obs.Trace) (patched bool, invalidated int, err error) {
	name := mp.Source
	var published *snapshot // the patched epoch standing queries re-evaluate against
	var perr error
	tp := obs.Now()
	w, _ := m.write(func(cur *snapshot) (publication, error) {
		p := publication{change: cs, casFP: true, fpFrom: fpBefore, fp: fpAfter, tr: tr}
		// Empty deltas touch no concepts and publish no event.
		if !cs.Empty() {
			p.dropTags = []string{mp.Concept}
			p.events = []feed.Event{{Kind: feed.KindChange, Source: cs.Source, Concepts: p.dropTags,
				Fingerprint: fpAfter, Upserted: len(cs.Upserted), Deleted: len(cs.Deleted)}}
		}
		if cur == nil || cur.fp != fpBefore {
			return p, nil
		}
		// A source the epoch was missing (degraded-mode fusion) leaves the
		// degraded set even with an empty population: the epoch now
		// reflects everything the source has.
		readmitted := slices.Contains(cur.degraded, name)
		next := &snapshot{w: cur.w, stats: cur.stats, fp: fpAfter, degraded: dropSource(cur.degraded, name)}
		if !cs.Empty() || readmitted {
			next.stats = cur.stats.clone()
			next.stats.DegradedSources = next.degraded
		}
		// An empty delta republishes the same sealed world under the new
		// fingerprint.
		if !cs.Empty() {
			w, err := cur.w.Patch(cs, mp)
			if perr = err; err != nil {
				// The half-applied copy is simply dropped; the published
				// epoch was never touched, but its fingerprint is stale
				// now, so retire it and rebuild lazily.
				return publication{retire: true}, nil
			}
			next.w = w
			next.stats.Conflicts = w.Conflicts()
			next.stats.patched(name, cs.Total)
			published = next
		}
		if readmitted {
			// Announced after the change event carrying the source's data.
			// (An unpatched epoch keeps its degraded set; the re-admission
			// then happens on the lazy rebuild instead.)
			p.events = append(p.events, feed.Event{Kind: feed.KindSourceUp, Source: name, Concepts: []string{"*"}, Fingerprint: fpAfter})
		}
		p.next, p.base = next, cur
		patched = true
		return p, nil
	})
	if perr != nil {
		return false, 0, perr
	}
	if patched {
		tr.SpanNote(obs.StageDeltaPatch, tp, fmt.Sprintf("%d changes", cs.Size()))
	}
	m.deltasApplied.Inc()
	m.entitiesPatched.Add(uint64(cs.Size()))
	m.selectiveInvals.Add(uint64(w.invalidated))

	if !cs.Empty() {
		m.evalStanding(w.seq, []string{mp.Concept}, published, release, tr)
	}
	return patched, w.invalidated, nil
}

// rebuildFallback is the one way out of incremental maintenance (delta
// unavailable, too large, or unpatchable): drop every cached result,
// publish the post-change fingerprint and a rebuild marker on the feed,
// and let the next pin rebuild the world — always safe, just not
// incremental.
func (m *Manager) rebuildFallback(name, reason string, release func(), tr *obs.Trace) {
	m.fullRebuilds.Inc()
	tr.Annotate("full rebuild: " + reason)
	w, _ := m.write(func(*snapshot) (publication, error) {
		// The fingerprint is computed under the writer lock, after this
		// change's version bump, so whichever rebuilder stores last stores
		// one covering every completed bump (a load-then-CAS could publish
		// neither, and the next ensureFresh would nuke spuriously). The
		// marker's wildcard concept makes every subscriber resync.
		fp := m.sourceFingerprint()
		return publication{dropAll: true, setFP: true, fp: fp, tr: tr, events: []feed.Event{
			{Kind: feed.KindRebuild, Source: name, Concepts: []string{"*"}, Fingerprint: fp}}}, nil
	})
	m.evalStanding(w.seq, []string{"*"}, nil, release, tr)
}
