package mediator

// Observability wiring. Every cumulative counter lives in exactly one place,
// the manager's obs.Registry: the mediator's own events are obs.Counter
// instruments incremented at the one site where the event happens, and counts
// another package owns (qcache, feed, health, snapstore) are function-backed
// series the registry reads at gather time. Nothing is copied; /metrics and
// /statsz both render Registry.Gather().
//
// Operation histograms (annoda_op_duration_seconds{op=...}) are observed
// unconditionally, independent of trace sampling, so their _count always
// equals the number of operations served. Per-stage histograms are fed
// from sampled trace spans at Trace.Finish (see internal/obs).

import (
	"context"
	"time"

	"repro/internal/obs"
)

// counters are the mediator's cumulative event counts, resolved once at
// construction so the hot paths increment without a map lookup.
type counters struct {
	snapshotHits     *obs.Counter
	snapshotMisses   *obs.Counter
	epochsPublished  *obs.Counter
	epochPins        *obs.Counter
	deltasApplied    *obs.Counter
	entitiesPatched  *obs.Counter
	fullRebuilds     *obs.Counter
	selectiveInvals  *obs.Counter
	checkpoints      *obs.Counter
	checkpointBytes  *obs.Counter
	walAppended      *obs.Counter
	walBytes         *obs.Counter
	walReplayed      *obs.Counter
	restores         *obs.Counter
	restoreFallbacks *obs.Counter
	persistErrors    *obs.Counter
	explains         *obs.Counter
	epochMasked      *obs.CounterVec
}

// initObs registers the manager's series and resolves its metric handles.
// With o == nil the counters live in a private registry — they count either
// way — while the op histograms and traces stay
// nil and the nil-safe obs API makes that instrumentation free.
func (m *Manager) initObs(o *obs.Obs) {
	reg := obs.NewRegistry()
	if o != nil {
		m.o = o
		reg = o.Reg
		m.opQueryDur = o.M.OpDur.With("query")
		m.opExplainDur = o.M.OpDur.With("explain")
		m.opExplainErr = o.M.OpErr.With("explain")
		m.opBatchDur = o.M.OpDur.With("batch")
		m.opRefreshDur = o.M.OpDur.With("refresh")
		m.opCkptDur = o.M.OpDur.With("checkpoint")
		m.opRestoreDur = o.M.OpDur.With("restore")
		m.opQueryErr = o.M.OpErr.With("query")
		m.opBatchErr = o.M.OpErr.With("batch")
		m.opRefreshErr = o.M.OpErr.With("refresh")
	}
	m.metrics = reg
	m.counters = counters{
		snapshotHits:     reg.Counter("annoda_snapshot_hits_total", "Computed queries answered eval-only against the fused snapshot."),
		snapshotMisses:   reg.Counter("annoda_snapshot_misses_total", "Computed queries that ran the full fetch+fuse pipeline."),
		epochsPublished:  reg.Counter("annoda_epochs_published_total", "Fused-snapshot epoch publications."),
		epochPins:        reg.Counter("annoda_epoch_pins_total", "Lock-free epoch acquisitions by the read path."),
		deltasApplied:    reg.Counter("annoda_deltas_applied_total", "Source refreshes absorbed incrementally."),
		entitiesPatched:  reg.Counter("annoda_entities_patched_total", "Entity-level changes applied to the fused snapshot."),
		fullRebuilds:     reg.Counter("annoda_full_rebuilds_total", "Refreshes that fell back to a full rebuild."),
		selectiveInvals:  reg.Counter("annoda_selective_invalidations_total", "Cached results dropped by a refresh's concept-scoped invalidation."),
		checkpoints:      reg.Counter("annoda_checkpoints_written_total", "Snapshot checkpoints written."),
		checkpointBytes:  reg.Counter("annoda_checkpoint_bytes_total", "Bytes written to snapshot checkpoints."),
		walAppended:      reg.Counter("annoda_wal_records_appended_total", "ChangeSet records appended to delta WALs."),
		walBytes:         reg.Counter("annoda_wal_append_bytes_total", "Bytes appended to the delta WAL."),
		walReplayed:      reg.Counter("annoda_wal_records_replayed_total", "WAL records replayed during restores."),
		restores:         reg.Counter("annoda_restores_total", "Successful warm restores from disk."),
		restoreFallbacks: reg.Counter("annoda_restore_fallbacks_total", "Checkpoints skipped on the way down the recovery ladder."),
		persistErrors:    reg.Counter("annoda_persist_errors_total", "Absorbed persistence failures."),
		explains:         reg.Counter("annoda_plan_explains_total", "Explain/ExplainAnalyze requests served."),
	}
	m.epochMasked = reg.CounterVec("annoda_epoch_masked_total", "Snapshot-path evaluations that hid a concept the query does not name, by concept.", "concept")
	m.translations.total = reg.CounterVec("annoda_translate_total", "Per-source translations into the global vocabulary: run (built) or read from the per-source-version memo (memo).", "source", "outcome")
	m.translations.objects = reg.GaugeVec("annoda_translated_objects", "Objects in the memoized translated population, by source.", "source")
	reg.CounterFunc("annoda_snapshot_prune_failures_total", "Retention/temp deletions the snapshot store could not perform.", func() int64 {
		if m.store == nil {
			return 0
		}
		return m.store.PruneFailures()
	})
	reg.GaugeFunc("annoda_degraded_sources", "Sources missing from the serving fused epoch.", func() int64 {
		if ep := m.epoch.Load(); ep != nil {
			return int64(len(ep.degraded))
		}
		return 0
	})
	reg.CounterFunc("annoda_health_recovery_generation", "Recovery generation: increments when a source returns to healthy.",
		func() int64 { return int64(m.health.Gen()) })

	if m.cache != nil {
		cache, plans, hub := m.cache, m.plans, m.hub
		reg.CounterFunc("annoda_cache_hits_total", "Result-cache hits.", func() int64 { return cache.Counters().Hits })
		reg.CounterFunc("annoda_cache_misses_total", "Result-cache misses (computations run).", func() int64 { return cache.Counters().Misses })
		reg.CounterFunc("annoda_cache_shared_total", "Queries that joined an in-flight identical computation (singleflight).", func() int64 { return cache.Counters().Shared })
		reg.CounterFunc("annoda_cache_evictions_total", "Result-cache LRU evictions.", func() int64 { return cache.Counters().Evictions })
		reg.CounterFunc("annoda_cache_expired_total", "Result-cache TTL expiries.", func() int64 { return cache.Counters().Expired })
		reg.CounterFunc("annoda_cache_invalidations_total", "Cached results dropped by tag-scoped invalidation.", func() int64 { return cache.Counters().Invalidations })
		reg.GaugeFunc("annoda_cache_entries", "Result-cache resident entries.", func() int64 { return int64(cache.Counters().Entries) })
		reg.GaugeFunc("annoda_cache_in_flight", "Singleflight computations currently running.", func() int64 { return int64(cache.Counters().InFlight) })
		reg.CounterFunc("annoda_plan_cache_hits_total", "Compiled-plan cache hits.", func() int64 { return plans.Counters().Hits })
		reg.CounterFunc("annoda_plan_cache_misses_total", "Compiled-plan cache misses (plan compiles run).", func() int64 { return plans.Counters().Misses })
		reg.CounterFunc("annoda_plan_cache_shared_total", "Plan lookups that joined an in-flight compile (singleflight).", func() int64 { return plans.Counters().Shared })
		reg.GaugeFunc("annoda_plan_cache_entries", "Compiled plans resident in the plan cache.", func() int64 { return int64(plans.Counters().Entries) })
		reg.CounterFunc("annoda_feed_events_published_total", "Change-feed events published.", func() int64 { return hub.Counters().Published })
		reg.CounterFunc("annoda_feed_events_delivered_total", "Change-feed events delivered to subscribers.", func() int64 { return hub.Counters().Delivered })
		reg.CounterFunc("annoda_feed_events_dropped_total", "Change-feed events dropped to subscriber overflow.", func() int64 { return hub.Counters().Dropped })
		reg.CounterFunc("annoda_feed_overflows_total", "Subscriber buffer overflows (loss markers sent).", func() int64 { return hub.Counters().Overflows })
		reg.CounterFunc("annoda_feed_answers_total", "Standing-query answer events delivered.", func() int64 { return hub.Counters().Answers })
		reg.CounterFunc("annoda_feed_subscribed_total", "Change-feed subscriptions ever opened.", func() int64 { return hub.Counters().Subscribed })
		reg.GaugeFunc("annoda_feed_subscribers", "Live change-feed subscribers.", func() int64 { return hub.Counters().Subscribers })
	}

	// Per-source series: the label set (registered sources, their labels) is
	// only known at scrape time, so these are resolved in the gather hook.
	srcEntities := reg.GaugeVec("annoda_source_entities", "Source population at the last refresh or snapshot build, by source.", "source")
	srcLabelEnts := reg.GaugeVec("annoda_source_label_entities", "Entities carrying a label at the last snapshot build, by source and label.", "source", "label")
	srcFetchEWMA := reg.GaugeVec("annoda_source_fetch_ewma_micros", "Smoothed (EWMA) per-source fetch latency in microseconds.", "source")
	srcSelectivity := reg.GaugeVec("annoda_source_pushdown_selectivity_ppm", "Observed pushdown selectivity (kept/fetched, parts per million) aggregated over predicate shapes, by source.", "source")
	srcHealth := reg.GaugeVec("annoda_source_health", "Per-source breaker state: 0 healthy, 1 degraded, 2 down.", "source")
	srcFailures := reg.CounterVec("annoda_source_failures_total", "Final (post-retry) per-source fetch failures.", "source")
	srcRetries := reg.CounterVec("annoda_source_fetch_retries_total", "In-fetch retry attempts, by source.", "source")
	srcProbes := reg.CounterVec("annoda_source_probes_total", "Half-open probe fetches admitted, by source.", "source")
	srcOpens := reg.CounterVec("annoda_breaker_opens_total", "Breaker open transitions (source declared down), by source.", "source")
	reg.OnGather(func() {
		for _, name := range m.reg.Names() {
			br := m.health.For(name)
			srcHealth.With(name).Set(int64(br.Snapshot().StateCode))
			srcFailures.Func(func() int64 { return int64(br.Snapshot().Failures) }, name)
			srcRetries.Func(func() int64 { return int64(br.Snapshot().Retries) }, name)
			srcProbes.Func(func() int64 { return int64(br.Snapshot().Probes) }, name)
			srcOpens.Func(func() int64 { return int64(br.Snapshot().Opens) }, name)
		}
		for _, ss := range m.SourceStats() {
			srcEntities.With(ss.Source).Set(int64(ss.Entities))
			srcFetchEWMA.With(ss.Source).Set(ss.FetchEWMAMicros)
			for label, n := range ss.Labels {
				srcLabelEnts.With(ss.Source, label).Set(int64(n))
			}
			var fetched, kept int64
			for _, p := range ss.Predicates {
				fetched += p.Fetched
				kept += p.Kept
			}
			if fetched > 0 {
				srcSelectivity.With(ss.Source).Set(kept * 1_000_000 / fetched)
			}
		}
	})
}

// Obs returns the observability bundle the manager was built with (nil
// when observability is off). The server shares it for HTTP metrics and
// the /api/debug/traces rings.
func (m *Manager) Obs() *obs.Obs { return m.o }

// opScope is one mediator operation's observability scope: the trace its
// stages record into, and when it began. The zero value (observability
// off) is inert.
type opScope struct {
	tr    *obs.Trace
	owned bool // the mediator started tr and must Finish it
	t0    time.Time
}

// beginOp opens an operation's scope. It records into the request's trace
// when ctx carries one (the server's middleware started it and will finish
// it), otherwise into a fresh mediator-owned trace.
func (m *Manager) beginOp(ctx context.Context, op, detail string) (sc opScope) {
	if m.o == nil {
		return sc
	}
	if sc.tr = obs.TraceFrom(ctx); sc.tr != nil {
		sc.tr.Annotate(detail)
	} else {
		sc.tr, sc.owned = m.o.Start(op, detail), true
	}
	sc.t0 = obs.Now()
	return sc
}

// endOp closes the scope. The op histogram is observed for every call —
// independent of trace sampling — so its _count equals the operations
// served. dur and errs may be nil (an operation without that series).
func (m *Manager) endOp(sc opScope, dur *obs.Histogram, errs *obs.Counter, err error) {
	if m.o == nil {
		return
	}
	dur.Observe(obs.Since(sc.t0))
	if err != nil {
		errs.Inc()
		sc.tr.SetErr(err)
	}
	if sc.owned {
		sc.tr.Finish()
	}
}
