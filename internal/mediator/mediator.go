package mediator

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delta"
	"repro/internal/feed"
	"repro/internal/gml"
	"repro/internal/health"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/qcache"
	"repro/internal/snapstore"
	"repro/internal/stats"
	"repro/internal/wrapper"
)

// Options tunes the query manager. DisablePushdown and DisableCache are the
// reference routes the route-equivalence tests and the benchmark oracle
// compare the optimized paths against.
type Options struct {
	// Policy selects conflict reconciliation (default PolicyPreferPrimary).
	Policy Policy
	// DisablePushdown turns off per-source predicate pre-filtering and
	// semi-join link fetching.
	DisablePushdown bool
	// Workers bounds the source fan-out, the fusion shards and AskBatch's
	// evaluators (default: GOMAXPROCS); 1 runs all of them sequentially.
	Workers int
	// CacheSize bounds the sharded result cache in entries (default
	// qcache.DefaultCapacity). Ignored when DisableCache is set.
	CacheSize int
	// CacheTTL expires cached results by age; <= 0 means results live
	// until evicted or invalidated by a source change.
	CacheTTL time.Duration
	// DisableCache turns the result cache off entirely: every query
	// recomputes the federated fan-out (the E13 ablation baseline).
	DisableCache bool
	// MaxDeltaFraction bounds how much of a source may change before
	// RefreshSource abandons incremental maintenance and falls back to a
	// full rebuild (<= 0 selects DefaultMaxDeltaFraction). Past the bound,
	// patching entity by entity costs more than refusing.
	MaxDeltaFraction float64
	// Obs wires the observability layer: per-op latency histograms and
	// request traces, plus the registry the cumulative counters register
	// in. nil disables histograms and traces at the cost of one predictable
	// branch per site; the counters then count in a private registry (see
	// Manager.Metrics).
	Obs *obs.Obs

	// MinSources > 0 enables degraded-mode fusion: a fetch that loses
	// sources still succeeds as long as at least MinSources mapped
	// sources respond (and none of them is in RequireSources). The fused
	// world is built from the healthy subset, the missing sources ride
	// the epoch and Stats.DegradedSources, and a recovered source is
	// re-admitted by delta. 0 (the default) keeps the strict pre-existing
	// behaviour: any source failure fails the fuse.
	MinSources int
	// RequireSources lists sources whose failure is always fatal,
	// regardless of MinSources — the "this answer is meaningless without
	// LocusLink" knob.
	RequireSources []string
	// FetchTimeout bounds each per-source model build; a build still
	// running at the deadline fails that attempt (and, through the
	// wrapper's context path, stops waiting for it). <= 0 means no
	// deadline.
	FetchTimeout time.Duration
	// FetchRetries is how many times a failed per-source fetch is retried
	// within one query/fuse before the failure is charged to the source's
	// breaker. Half-open probe fetches never retry. Default 0.
	FetchRetries int
	// FetchBackoff is the sleep before the first in-fetch retry, doubling
	// per retry (<= 0 selects DefaultFetchBackoff). It is deliberately
	// longer than the wrapper layer's build-error memo, so a retry is a
	// fresh build attempt rather than a memoized failure.
	FetchBackoff time.Duration
	// Health tunes the per-source circuit breakers (zero value = defaults).
	Health health.Config
}

// DefaultFetchBackoff is the base in-fetch retry backoff.
const DefaultFetchBackoff = 200 * time.Millisecond

// DefaultMaxDeltaFraction is the changed-fraction bound above which a
// source refresh stops being worth applying incrementally.
const DefaultMaxDeltaFraction = 0.25

// Stats reports how a query was executed — the observable effect of the
// multi-system optimizer.
type Stats struct {
	SourcesQueried []string
	SourcesPruned  []string
	Fetched        map[string]int // entities translated, by source
	Kept           map[string]int // entities surviving pushdown, by source
	// Translation reports, by source, whether the fetch read the memoized
	// translated population ("memo") or translated the source ("built").
	Translation  map[string]string
	Conflicts    []Conflict
	PushdownUsed bool
	Parallel     bool
	FetchTime    time.Duration
	FuseTime     time.Duration
	EvalTime     time.Duration

	// DegradedSources lists the sources whose fetch failed but whose
	// absence the degraded-mode fusion tolerated (Options.MinSources):
	// this answer was computed without their data. Sorted; empty on a
	// fully healthy computation. For snapshot-path answers it reflects
	// the epoch the answer was evaluated against.
	DegradedSources []string

	// PushdownFallbacks counts entities kept because a pushed-down
	// predicate failed to evaluate at the source — pushdown must never
	// break a query, so evaluation errors fall back to keeping the entity
	// and letting the final evaluation decide. A nonzero value usually
	// means a pushdown-classification bug worth investigating.
	PushdownFallbacks int

	// SnapshotUsed: the query was answered by evaluating its compiled plan
	// against the shared fused snapshot, skipping fetch and fuse entirely.
	// FetchTime/FuseTime then describe the snapshot's construction (which
	// may have been amortized over earlier queries), not this request.
	SnapshotUsed bool
	// Masked lists the concepts a snapshot-path evaluation hid from the
	// query (sorted): the concepts it does not name, whose sources the
	// per-query pipeline would have pruned. The other fields still describe
	// the whole epoch — no source is pruned from it and Conflicts counts
	// every reconciliation in the federation.
	Masked []string

	// BatchQuestions is the number of questions answered together by one
	// AskBatch call (zero outside batch evaluation). EvalTime then holds
	// the batch's total wall-clock evaluation time; String reports the
	// per-question share.
	BatchQuestions int

	// CacheEnabled is false when the manager runs with DisableCache.
	// CacheHit: answered from the result cache (or shared an in-flight
	// compute); the timing fields above then describe the original
	// computation, not this request.
	CacheEnabled bool
	CacheHit     bool
}

// String summarizes the stats for explain output.
func (s *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sources queried: %s\n", strings.Join(s.SourcesQueried, ", "))
	if len(s.SourcesPruned) > 0 {
		fmt.Fprintf(&sb, "sources pruned:  %s\n", strings.Join(s.SourcesPruned, ", "))
	}
	for _, src := range s.SourcesQueried {
		fmt.Fprintf(&sb, "  %-10s fetched %d kept %d\n", src, s.Fetched[src], s.Kept[src])
	}
	if len(s.DegradedSources) > 0 {
		fmt.Fprintf(&sb, "DEGRADED: computed without %s\n", strings.Join(s.DegradedSources, ", "))
	}
	fmt.Fprintf(&sb, "conflicts reconciled: %d\n", len(s.Conflicts))
	fmt.Fprintf(&sb, "pushdown=%v parallel=%v fetch=%v fuse=%v eval=%v\n",
		s.PushdownUsed, s.Parallel, s.FetchTime.Round(time.Microsecond),
		s.FuseTime.Round(time.Microsecond), s.EvalTime.Round(time.Microsecond))
	if s.PushdownFallbacks > 0 {
		fmt.Fprintf(&sb, "pushdown fallbacks: %d\n", s.PushdownFallbacks)
	}
	if s.SnapshotUsed {
		sb.WriteString("snapshot: eval-only over shared fused graph\n")
	}
	if len(s.Masked) > 0 {
		fmt.Fprintf(&sb, "masked: %s\n", strings.Join(s.Masked, ", "))
	}
	if s.BatchQuestions > 0 {
		per := s.EvalTime / time.Duration(s.BatchQuestions)
		fmt.Fprintf(&sb, "batch: %d questions, eval %v total (%v/question)\n",
			s.BatchQuestions, s.EvalTime.Round(time.Microsecond), per.Round(time.Microsecond))
	}
	if s.CacheEnabled {
		outcome := "miss"
		if s.CacheHit {
			outcome = "hit"
		}
		fmt.Fprintf(&sb, "cache: %s\n", outcome)
	}
	return sb.String()
}

// Manager is the ANNODA query manager (Figure 1's mediator box). It is safe
// for concurrent use: the registry and global model are read-only during
// queries, and the result cache is internally synchronized.
type Manager struct {
	reg   *wrapper.Registry
	gl    *gml.Global
	opts  Options
	cache *qcache.Cache // nil when DisableCache
	// plans caches compiled lorel plans by canonical query string. It lives
	// apart from the result cache because plans are source-independent: a
	// source Refresh invalidates results but the same query text still
	// compiles to the same plan, and plan compiles must not distort the
	// result cache's hit/miss counters.
	plans *qcache.Cache // nil when DisableCache
	// lastFP is the source-set fingerprint the cache contents were computed
	// under; a mismatch (source refreshed, plugged in, or removed) drops
	// every entry before the next lookup — freshness beats reuse.
	lastFP atomic.Uint64

	// epoch is the published fused-snapshot epoch: an immutable
	// {fuseState, stats, fingerprint} the read path pins with one atomic
	// load and evaluates with no lock held (the epoch's graph is frozen).
	// Publication — cold build, RefreshSource's clone-patch, full-rebuild
	// fallback — happens under epochMu, which readers never touch: this is
	// RCU, writers pay for copies so readers pay nothing. A nil pointer
	// means no epoch exists for the current source fingerprint and the next
	// pin builds one.
	epoch   atomic.Pointer[snapshot]
	epochMu sync.Mutex

	// refreshing counts in-flight RefreshSource calls. While nonzero,
	// ensureFresh suppresses the fingerprint-mismatch cache nuke and
	// acquireSnapshot suppresses stale-snapshot rebuilds: the refresh in
	// flight will invalidate selectively, patch the snapshot, and publish
	// the new fingerprint when it completes. Until then readers serve the
	// pre-refresh world — the refresh's visibility point is its
	// completion, not its first side effect.
	refreshing atomic.Int32

	// Durable snapshot store (nil when persistence is disabled; see
	// persist.go). persistSeq is the newest written/restored checkpoint
	// sequence; diskEpoch is the epoch the store currently reflects —
	// FlushSnapshot compares it against the serving epoch to decide
	// whether a final checkpoint is needed. Both are written under
	// epochMu.
	store      *snapstore.Store
	persistPol PersistPolicy
	persistSeq atomic.Uint64
	diskEpoch  atomic.Pointer[snapshot]

	// health tracks per-source availability: one circuit breaker per
	// source, plus the recovery generation sourceFingerprint folds in so
	// a source coming back invalidates every answer computed without it.
	health *health.Tracker

	// srcStats is the per-source statistics table (entity counts, label
	// cardinalities, fetch-latency EWMA, observed pushdown selectivity) —
	// the measured ground the cost-based pushdown gate stands on. Fed at
	// fetch/fuse/refresh time; read by Explain, /statsz and the per-source
	// gauges. Always non-nil (the table itself is also nil-inert).
	srcStats *stats.Table

	// translations memoizes each source's translated population per source
	// version (see translate.go).
	translations translations

	// hub is the live change-feed hub (nil with DisableCache — no epochs,
	// nothing to notify about); RefreshSource publishes into it under
	// epochMu so feed order matches epoch publication order. standingQs
	// holds the registered standing queries (see watch.go).
	hub        *feed.Hub
	standingMu sync.Mutex
	standingQs map[*StandingQuery]struct{}

	// metrics is the one home of every cumulative counter (see obs.go):
	// the embedded counters are instruments registered in it.
	metrics *obs.Registry
	counters

	// Observability handles, resolved once by initObs (see obs.go). All
	// nil when Options.Obs is nil; the obs API is nil-receiver-safe, so
	// instrumented sites stay unconditional.
	o            *obs.Obs
	opQueryDur   *obs.Histogram
	opExplainDur *obs.Histogram
	opExplainErr *obs.Counter
	opBatchDur   *obs.Histogram
	opRefreshDur *obs.Histogram
	opCkptDur    *obs.Histogram
	opRestoreDur *obs.Histogram
	opQueryErr   *obs.Counter
	opBatchErr   *obs.Counter
	opRefreshErr *obs.Counter
}

// New builds a manager over a registry and its global model.
func New(reg *wrapper.Registry, gl *gml.Global, opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	m := &Manager{reg: reg, gl: gl, opts: opts}
	m.health = health.NewTracker(opts.Health)
	m.srcStats = stats.New()
	if !opts.DisableCache {
		m.cache = qcache.New(opts.CacheSize, opts.CacheTTL)
		m.plans = qcache.New(opts.CacheSize, 0) // plans never age out
		m.hub = feed.NewHub()
	}
	m.initObs(opts.Obs)
	return m
}

// InvalidateCache drops every cached result. Call it whenever the source
// set or source contents change (plugging a source in, Refresh); in-flight
// computations started before the call are completed but not stored.
func (m *Manager) InvalidateCache() {
	if m.cache != nil {
		m.cache.Invalidate()
	}
}

// SourceStats snapshots the per-source statistics table (sorted by source).
func (m *Manager) SourceStats() []stats.SourceStats {
	return m.srcStats.Snapshot()
}

// sourceFingerprint hashes the registered source names and their model
// versions: any Refresh, Add or Remove changes it. The health tracker's
// recovery generation is folded in too, so a source transitioning back to
// healthy moves the fingerprint and invalidates every cached result and
// epoch computed while it was missing — but a source merely failing does
// not: the generation only moves on recovery, and answers computed from
// the full pre-outage world stay servable throughout the outage.
func (m *Manager) sourceFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range m.reg.All() {
		h.Write([]byte(w.Name()))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], w.Version())
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], m.health.Gen())
	h.Write(buf[:])
	return h.Sum64()
}

// ensureFresh invalidates the cache when the source set changed since its
// entries were stored. Racing callers may invalidate twice; that only
// costs a recompute, never staleness.
func (m *Manager) ensureFresh() {
	fp := m.sourceFingerprint()
	if old := m.lastFP.Load(); old != fp {
		if m.refreshing.Load() > 0 {
			// A RefreshSource is mid-flight: it bumped the version but has
			// not finished propagating the delta. Nuking here would defeat
			// the concept-scoped invalidation it is about to perform, so
			// keep serving the pre-refresh world; the refresh drops stale
			// entries and publishes the fingerprint when it completes (and
			// if it bails out, the next query lands here with refreshing
			// back at zero).
			return
		}
		// Invalidate before publishing the new fingerprint: a concurrent
		// caller must never see the updated fingerprint while stale
		// entries are still resident.
		m.cache.Invalidate()
		m.lastFP.CompareAndSwap(old, fp)
	}
}

// Global returns the global model the manager mediates for.
func (m *Manager) Global() *gml.Global { return m.gl }

// Registry returns the wrapper registry.
func (m *Manager) Registry() *wrapper.Registry { return m.reg }

// QueryString parses and runs a Lorel query phrased in the global
// vocabulary (from clauses over ANNODA-GML.<Concept>).
func (m *Manager) QueryString(src string) (*lorel.Result, *Stats, error) {
	return m.QueryStringCtx(context.Background(), src)
}

// QueryStringCtx is QueryString with a context. When ctx carries a trace
// (obs.ContextWithTrace — the server's request-ID middleware), the query's
// stages record into it; otherwise the mediator starts (and finishes) its
// own trace when observability is enabled.
func (m *Manager) QueryStringCtx(ctx context.Context, src string) (*lorel.Result, *Stats, error) {
	q, err := lorel.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return m.QueryCtx(ctx, q)
}

// Query decomposes, optimizes and executes a global Lorel query:
//
//  1. analyze which concepts the query touches (from clauses and link
//     labels) — unneeded sources are pruned (on the snapshot path: masked);
//  2. read each relevant source's translated entities (memoized per
//     source version) in parallel, applying pushed-down single-variable
//     predicates at the source;
//  3. fuse the translated populations into one integrated OEM graph,
//     linking genes to annotations/diseases/proteins and reconciling
//     conflicting attribute values;
//  4. evaluate the original query against the fused graph.
//
// Results are cached on the query's canonical form: the federated fan-out
// runs once per distinct question, concurrent identical questions collapse
// onto one computation (singleflight), and later askers get the stored
// result. Cached *lorel.Result values are shared — treat them as read-only.
//
// A distinct question over an unchanged source set usually skips the
// fan-out entirely: when the query is snapshot-safe (see
// snapshotPathDecision) its compiled plan is evaluated against one fused
// snapshot graph shared by every query computed under the current source
// fingerprint — eval-only, with the concepts it does not name hidden by a
// mask instead of left out of a private fusion.
func (m *Manager) Query(q *lorel.Query) (*lorel.Result, *Stats, error) {
	return m.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with a context (see QueryStringCtx for trace
// semantics). The op histogram is observed for every call — independent
// of trace sampling — so annoda_op_duration_seconds_count{op="query"}
// equals the number of queries served.
func (m *Manager) QueryCtx(ctx context.Context, q *lorel.Query) (*lorel.Result, *Stats, error) {
	canon := q.String()
	// Analysis runs before the cache lookup because the entry's
	// invalidation tags must be known when the singleflight call starts:
	// InvalidateTags fences intersecting in-flight computations, and a
	// call whose tags materialized only at store time could slip a stale
	// result past a concurrent RefreshSource. The cost on the hit path is
	// one AST walk, the same order as the q.String() canonicalization the
	// lookup already pays.
	an, err := m.analyze(q)
	if err != nil {
		return nil, nil, err
	}
	op := m.beginOp(ctx, "query", canon)
	res, stats, err := m.queryAnalyzed(q, canon, an, op.tr)
	m.endOp(op, m.opQueryDur, m.opQueryErr, err)
	return res, stats, err
}

// queryAnalyzed runs an already-canonicalized, already-analyzed query
// through the result cache (when enabled; refreshing it first if the source
// set changed) and the compute entry — the shared tail of Query and
// AskBatch's snapshot-unsafe fallback. Every caller gets a deep copy of the
// computation's stats stamped with its own cache flags: the stored Stats
// are immutable, but the flags differ per caller, and the reference fields
// must not be shared between callers. The entry is tagged with the concepts
// the computation depended on (RefreshSource drops only entries whose tags
// intersect the changed source's concept).
func (m *Manager) queryAnalyzed(q *lorel.Query, canon string, an *analysis, tr *obs.Trace) (*lorel.Result, *Stats, error) {
	if m.cache == nil {
		return m.queryCompute(q, canon, an, tr, nil)
	}
	m.ensureFresh()
	type answer struct {
		res   *lorel.Result
		stats *Stats
	}
	var t0 time.Time
	if tr != nil {
		t0 = obs.Now()
	}
	v, outcome, err := m.cache.DoTagged("query\x00"+canon, an.cacheTags(), func() (any, error) {
		res, stats, err := m.queryCompute(q, canon, an, tr, nil)
		if err != nil {
			return nil, err
		}
		return &answer{res: res, stats: stats}, nil
	})
	if tr != nil {
		// A miss's window is the whole computation, already described by
		// the compute stages' own spans; record only the cache-side
		// outcomes.
		switch outcome {
		case qcache.Hit:
			tr.SpanNote(obs.StageCacheLookup, t0, "hit")
		case qcache.Shared:
			tr.Span(obs.StageSingleflightWait, t0)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	ans := v.(*answer)
	stats := ans.stats.clone()
	stats.CacheEnabled = true
	stats.CacheHit = outcome != qcache.Miss
	return ans.res, stats, nil
}

// clone deep-copies s, including the map and slice fields. queryAnalyzed
// hands every caller of a cached entry its own copy so one caller mutating its
// Stats can never corrupt another's (or the stored original's).
func (s *Stats) clone() *Stats {
	cp := *s
	cp.SourcesQueried = append([]string(nil), s.SourcesQueried...)
	cp.SourcesPruned = append([]string(nil), s.SourcesPruned...)
	cp.DegradedSources = append([]string(nil), s.DegradedSources...)
	cp.Masked = append([]string(nil), s.Masked...)
	cp.Conflicts = append([]Conflict(nil), s.Conflicts...)
	cp.Fetched = maps.Clone(s.Fetched)
	cp.Kept = maps.Clone(s.Kept)
	cp.Translation = maps.Clone(s.Translation)
	return &cp
}

// planFor returns the compiled plan for a query, caching it by canonical
// form so a repeated query shape compiles once (plans are graph-independent
// and survive source invalidation). Cached plans are shared across
// goroutines, so the query is cloned before compiling; an uncached plan is
// transient and single-use, so it may alias the caller's query directly.
func (m *Manager) planFor(q *lorel.Query, canon string) (*lorel.Plan, error) {
	if m.plans == nil {
		return lorel.Compile(q)
	}
	v, _, err := m.plans.Do(canon, func() (any, error) {
		p, err := lorel.Compile(q.Clone())
		if err != nil {
			return nil, err
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*lorel.Plan), nil
}

// queryCompute is the one compute entry: it routes a query to the eval-only
// snapshot fast path or the full fetch+fuse pipeline. Live queries and
// EXPLAIN ANALYZE both call it, so an analyzed run cannot route differently
// from the query it explains. The epoch-independent rules are asked first, so
// a query they turn away (a pushed-down point lookup) never pins — or builds
// — an epoch; querySnapshot then puts the epoch-dependent one to the epoch it
// pinned. ec, when non-nil, accumulates the evaluation's per-stage
// cardinalities; the query path passes nil.
func (m *Manager) queryCompute(q *lorel.Query, canon string, an *analysis, tr *obs.Trace, ec *lorel.EvalCounts) (*lorel.Result, *Stats, error) {
	if m.cache != nil {
		if d := m.snapshotPathDecision(an, q, nil); d.safe {
			res, stats, err := m.querySnapshot(q, canon, an, d, tr, ec)
			if err != errEpochDeclined {
				return res, stats, err
			}
		}
		m.snapshotMisses.Inc()
	}
	return m.execute(q, canon, an, tr, ec)
}

// errEpochDeclined is querySnapshot's way of handing a query back to the
// per-query pipeline; it never leaves queryCompute.
var errEpochDeclined = errors.New("mediator: the pinned epoch declined the query")

// snapshot is one published fused-snapshot epoch. Everything it references
// is immutable: the fuseState's graph is frozen and its bookkeeping is
// never mutated after publication (RefreshSource patches a clone and
// publishes that instead), so any number of goroutines can evaluate
// against a pinned epoch with no synchronization at all, and a reader
// pinned to an old epoch keeps a consistent pre-refresh world for as long
// as it holds the pointer.
type snapshot struct {
	fs    *fuseState
	stats *Stats
	fp    uint64 // source-set fingerprint the epoch reflects
	// degraded lists the sources whose data this epoch is missing
	// (degraded-mode fusion built it from the healthy subset). Sorted;
	// nil for a complete epoch. A recovered source is folded back in by
	// ProbeSource/RefreshSource, which publish a successor epoch without
	// it in this set.
	degraded []string
	// prov is which link concept decided which gene attribute — what masks
	// for pruned queries are made from (see mask.go). Set by publishLocked.
	prov *provenance
}

// querySnapshot answers a query by evaluating its compiled plan against a
// pinned fused-snapshot epoch — the full integrated graph built once per
// source fingerprint and shared across every snapshot-safe query — under
// the mask that hides the concepts the query does not name. d is the
// epoch-independent verdict queryCompute already took. No lock is held
// during evaluation: the epoch is one atomic pointer load, its graph is
// frozen, and a concurrent RefreshSource publishes a patched clone instead
// of mutating what this query is reading. It returns errEpochDeclined when
// the epoch pinned cannot be masked for this query, and — for a query that
// needs only some of the sources — when no epoch can be pinned, or one would
// have to be built while a source is down: building needs every source, the
// query does not, and the attempt would repeat per query under the builder's
// lock.
func (m *Manager) querySnapshot(q *lorel.Query, canon string, an *analysis, d pathDecision, tr *obs.Trace, ec *lorel.EvalCounts) (*lorel.Result, *Stats, error) {
	var t0 time.Time
	if tr != nil {
		t0 = obs.Now()
	}
	plan, err := m.planFor(q, canon)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.Span(obs.StagePlanCompile, t0)
		t0 = obs.Now()
	}
	pruned := len(d.masked) > 0
	if pruned && m.currentEpoch() == nil && m.anySourceDown() {
		tr.Annotate("no epoch published and a source is down; not building one for a query that prunes " + strings.Join(d.masked, ", "))
		return nil, nil, errEpochDeclined
	}
	ep, _, err := m.pinEpoch()
	if err != nil {
		if pruned {
			return nil, nil, errEpochDeclined
		}
		return nil, nil, err
	}
	if tr != nil {
		tr.Span(obs.StageEpochPin, t0)
	}
	if d = d.on(ep, an); !d.safe {
		tr.Annotate("epoch declined: " + d.reason)
		return nil, nil, errEpochDeclined
	}
	return m.evalEpoch(ep, plan, d, tr, ec)
}

// evalEpoch is the one place a query plan meets a pinned epoch's graph:
// evaluate under the decision's mask, stamp a private copy of the epoch's
// stats with this evaluation, and count the snapshot hit (answered queries
// only). Single queries, batch questions, EXPLAIN ANALYZE and standing
// queries all end here, each with the decision snapshotPathDecision took
// for that query against that epoch.
func (m *Manager) evalEpoch(ep *snapshot, plan *lorel.Plan, d pathDecision, tr *obs.Trace, ec *lorel.EvalCounts) (*lorel.Result, *Stats, error) {
	t := obs.Now()
	res, err := plan.EvalMasked(ep.fs.graph, d.mask, ec)
	if err != nil {
		return nil, nil, err
	}
	m.snapshotHits.Inc()
	for _, c := range d.masked {
		m.epochMasked.With(c).Inc()
	}
	stats := ep.stats.clone()
	stats.EvalTime = obs.Since(t)
	stats.SnapshotUsed = true
	stats.Masked = d.masked
	traceEval(tr, t, stats.EvalTime, res)
	return res, stats, nil
}

// traceEval records an evaluation's eval span and, inside it, the
// answer-import stage the evaluation timed.
func traceEval(tr *obs.Trace, start time.Time, d time.Duration, res *lorel.Result) {
	if tr == nil {
		return
	}
	tr.SpanDur(obs.StageEval, start, d, "")
	tr.SpanDur(obs.StageAnswerImport, res.ImportStart, res.ImportTime, fmt.Sprintf("%d objects", res.Imported))
}

// currentEpoch is pinEpoch's fast path on its own: the published epoch when
// pinEpoch would serve it as-is, nil when pinEpoch would have to build one.
func (m *Manager) currentEpoch() *snapshot {
	if s := m.epoch.Load(); s != nil && (s.fp == m.sourceFingerprint() || m.refreshing.Load() > 0) {
		return s
	}
	return nil
}

// anySourceDown reports whether some registered source's breaker is open —
// an epoch built now would fail (strict mode) or come out degraded.
func (m *Manager) anySourceDown() bool {
	for _, name := range m.reg.Names() {
		if down, _ := m.health.For(name).Down(); down {
			return true
		}
	}
	return false
}

// pinEpoch returns the current fused-snapshot epoch, building and
// publishing one first when none exists for the current source
// fingerprint. The fast path is a single atomic load — no lock, no
// reference counting, no release obligation: the returned epoch is
// immutable and garbage-collected when the last pinner drops it. built
// reports whether this call constructed the epoch.
//
// While a RefreshSource is mid-flight (m.refreshing > 0) a stale epoch is
// served as-is: the refresh becomes visible atomically when it publishes
// the patched epoch, and rebuilding here would only waste a full fusion
// the patch supersedes. Readers during the window observe the pre-refresh
// world, consistent with what the result cache serves (see ensureFresh).
func (m *Manager) pinEpoch() (ep *snapshot, built bool, err error) {
	for {
		if s := m.currentEpoch(); s != nil {
			m.epochPins.Inc()
			return s, built, nil
		}
		m.epochMu.Lock()
		if s := m.epoch.Load(); s == nil || (s.fp != m.sourceFingerprint() && m.refreshing.Load() == 0) {
			// Stamp the epoch with a fingerprint computed atomically with
			// the build, and verified unchanged after it: stamping a
			// fingerprint observed before the lock could label an epoch
			// built from newer models with an older fingerprint, and a
			// concurrent RefreshSource would then double-apply its delta.
			for {
				fpPre := m.sourceFingerprint()
				nfs, nstats, berr := m.buildFuseState()
				if berr != nil {
					m.epochMu.Unlock()
					return nil, false, berr
				}
				if m.sourceFingerprint() != fpPre {
					continue // a source moved mid-build; rebuild
				}
				m.publishLocked(&snapshot{fs: nfs, stats: nstats, fp: fpPre, degraded: nstats.DegradedSources})
				built = true
				break
			}
		}
		m.epochMu.Unlock()
		// Loop: re-pin — the fingerprint may have moved again while we
		// built, or another builder may have published first.
	}
}

// publishLocked freezes the epoch's graph, records its provenance and makes
// the epoch current. m.epochMu must be held; readers observe the flip on
// their next atomic load and are never blocked by it.
func (m *Manager) publishLocked(s *snapshot) {
	s.fs.graph.Freeze()
	s.prov = epochProvenance(s.fs)
	m.epoch.Store(s)
	m.epochsPublished.Inc()
}

// execute runs the full pipeline for one analyzed query: fetch, fuse, eval.
func (m *Manager) execute(q *lorel.Query, canon string, an *analysis, tr *obs.Trace, ec *lorel.EvalCounts) (*lorel.Result, *Stats, error) {
	fused, stats, err := m.fetchFuse(an, nil, tr)
	if err != nil {
		return nil, nil, err
	}
	plan, err := m.planFor(q, canon)
	if err != nil {
		return nil, nil, err
	}
	t := obs.Now()
	res, err := plan.EvalMasked(fused, nil, ec)
	if err != nil {
		return nil, nil, err
	}
	stats.EvalTime = obs.Since(t)
	traceEval(tr, t, stats.EvalTime, res)
	return res, stats, nil
}

// fetchFuse is the one fetch+fuse step, timing both stages into fresh
// Stats: the per-query pipeline, the epoch build and the DisableCache fused
// graph all run it. rec, when non-nil, records the fusion bookkeeping
// incremental maintenance needs (which also asks the fetch for per-entity
// structural hashes); with no shared snapshot to maintain, nil skips that
// work rather than throwing it away.
func (m *Manager) fetchFuse(an *analysis, rec *fuseState, tr *obs.Trace) (*oem.Graph, *Stats, error) {
	stats := &Stats{Fetched: map[string]int{}, Kept: map[string]int{}, Parallel: m.opts.Workers > 1}
	t0 := obs.Now()
	pops, err := m.fetch(an, stats, rec != nil, tr)
	if err != nil {
		return nil, nil, err
	}
	stats.FetchTime = obs.Since(t0)
	tr.SpanDur(obs.StageFetch, t0, stats.FetchTime, "")
	if rec != nil {
		// A snapshot build fetches every source in full (needAll, no
		// pushdown): the one place the whole population is in hand, so
		// refresh the statistics table's entity counts and per-label
		// cardinalities here.
		for _, p := range pops {
			m.srcStats.SetEntities(p.source, p.fetchedCount)
			m.srcStats.SetLabels(p.source, labelCardinalities(p))
		}
	}
	t1 := obs.Now()
	fused, err := m.fuseInto(an, pops, stats, rec)
	if err != nil {
		return nil, nil, err
	}
	stats.FuseTime = obs.Since(t1)
	tr.SpanDur(obs.StageFuse, t1, stats.FuseTime, "")
	return fused, stats, nil
}

// everything is the analysis of "every concept, no pushdown": what the
// shared snapshot and the materialized fused graph are built from.
func everything() *analysis {
	return &analysis{needAll: true, fromConcepts: map[string]string{}, pushdown: map[string][]lorel.Cond{}}
}

// pathDecision is snapshotPathDecision's verdict on one query: whether the
// epoch answers it, why, and under what mask.
type pathDecision struct {
	safe   bool
	reason string
	// masked lists (sorted) the concepts the query does not name, which the
	// per-query pipeline would prune; mask hides them on the epoch the
	// decision was taken against (nil when nothing is hidden, the epoch
	// declined, or no epoch was given).
	masked []string
	mask   *oem.Mask
}

// snapshotPathDecision decides whether evaluating q on the fused snapshot is
// guaranteed to produce the same answer as the per-query pipeline, with its
// reasoning attached. Routing, batch, standing queries and Explain all call
// it, so the report can never diverge from the decision. The snapshot
// differs from a per-query fused graph in three ways, each of which must be
// unobservable by q:
//
//  1. Pushdown-filtered entities are present — safe only when nothing is
//     pushed down (the final eval re-applies the full where clause either
//     way, but filtered link entities also feed reconciliation).
//  2. Pruned sources' entities and their reconciliation contributions are
//     present — they are hidden by a mask (see mask.go), which needs
//     PolicyPreferPrimary (the one policy with a single winner to attribute;
//     pushdown has the same precondition) and a complete epoch in which no
//     attribute a hidden concept won has a visible runner-up.
//  3. Semi-join-skipped entities (unlinked, not directly queried) are
//     present — those are reachable only through the root, so they are
//     unobservable unless a root-based path can reach that concept's
//     root-level edges.
//
// Rule 2's second half depends on the epoch and is applied by on. With
// ep == nil only the epoch-independent rules are asked: the verdict then says
// whether the query may be tried against an epoch at all, and every
// evaluation puts it to the epoch it pinned.
func (m *Manager) snapshotPathDecision(an *analysis, q *lorel.Query, ep *snapshot) pathDecision {
	if len(an.pushdown) != 0 {
		return pathDecision{reason: "pushdown predicates filter entities the snapshot retains"}
	}
	d := pathDecision{masked: m.hiddenConcepts(an)}
	underMask := ""
	if len(d.masked) > 0 {
		names := strings.Join(d.masked, ", ")
		if m.opts.Policy != PolicyPreferPrimary {
			d.reason = fmt.Sprintf("query prunes %s and policy %v reconciles over every contribution; no mask can take the pruned sources' share back out", names, m.opts.Policy)
			return d
		}
		underMask = "; evaluated under a mask hiding " + names
	}
	if !an.needAll && !m.opts.DisablePushdown {
		for _, p := range collectPaths(q) {
			if !strings.EqualFold(p.Base, "ANNODA-GML") {
				continue
			}
			why := ""
			if len(p.Steps) == 0 {
				why = "query binds the ANNODA-GML root itself; every root edge is observable"
			} else if l, ok := p.Steps[0].(lorel.LabelStep); !ok {
				why = fmt.Sprintf("root path %s starts with a non-label step; its reach is unbounded", p.String())
			} else if c := conceptNames[strings.ToLower(l.Name)]; c != "" && c != "Gene" && !conceptQueriedDirectly(an, c) {
				why = fmt.Sprintf("path %s could observe unlinked %s entities the per-query graph skips", p.String(), c)
			}
			if why != "" {
				return pathDecision{reason: why, masked: d.masked}
			}
		}
	}
	d.safe = true
	if len(d.masked) == 0 && (an.needAll || m.opts.DisablePushdown) {
		// Nothing is pruned, filtered, or semi-join-skipped: the per-query
		// fused graph IS the snapshot.
		d.reason = "query touches every source; the per-query fused graph is the snapshot"
	} else {
		d.reason = "no pushdown and no semi-join skip is observable" + underMask
	}
	if ep != nil {
		d = d.on(ep, an)
	}
	return d
}

// on puts an epoch-independent verdict to the epoch a caller pinned: a query
// that hides concepts is safe on ep only under the mask ep can build for it.
func (d pathDecision) on(ep *snapshot, an *analysis) pathDecision {
	if d.safe && len(d.masked) > 0 {
		mask, decline := ep.maskFor(d.masked, an)
		if mask == nil {
			return pathDecision{reason: decline, masked: d.masked}
		}
		d.mask = mask
	}
	return d
}

// FusedGraph returns the full integrated graph (every concept, no
// pushdown): the materialized "consistent view of annotation data". Views
// and the navigation layer render from it. With the cache enabled the
// returned graph is the current epoch's frozen snapshot: immutable, safe
// to read from any number of goroutines, and safe to retain across a
// source refresh — the caller simply keeps observing the epoch it pinned
// while newer queries see the refreshed one. Callers needing a mutable
// private graph should run with DisableCache, which builds one per call.
func (m *Manager) FusedGraph() (*oem.Graph, *Stats, error) {
	if m.cache == nil {
		return m.fetchFuse(everything(), nil, nil)
	}
	ep, built, err := m.pinEpoch()
	if err != nil {
		return nil, nil, err
	}
	stats := ep.stats.clone()
	stats.CacheEnabled = true
	stats.CacheHit = !built
	return ep.fs.graph, stats, nil
}

// WithFusedGraph runs fn over FusedGraph's graph: one pinned epoch, so fn
// sees a consistent world for its whole duration no matter how many
// RefreshSource calls publish new epochs meanwhile. fn holds no lock, may
// run as long as it likes, and may safely call back into the manager
// (including the refresh path: the refresh publishes a new epoch without
// touching the one fn reads).
func (m *Manager) WithFusedGraph(fn func(*oem.Graph, *Stats) error) error {
	g, stats, err := m.FusedGraph()
	if err != nil {
		return err
	}
	return fn(g, stats)
}

// buildFuseState runs the full fetch+fuse pipeline over every mapped
// source and records the fusion bookkeeping incremental maintenance needs
// (including per-entity structural hashes).
func (m *Manager) buildFuseState() (*fuseState, *Stats, error) {
	rec := &fuseState{}
	_, stats, err := m.fetchFuse(everything(), rec, nil)
	if err != nil {
		return nil, nil, err
	}
	return rec, stats, nil
}

// labelCardinalities counts, per label, how many of the population's
// entities carry at least one edge with that label — the per-source label
// cardinality statistic a cost model estimates exists-predicates with.
func labelCardinalities(p *population) map[string]int {
	out := make(map[string]int)
	seen := make(map[string]bool)
	for _, e := range p.entities {
		obj := p.graph.Get(e)
		if obj == nil || !obj.IsComplex() {
			continue
		}
		clear(seen)
		for _, r := range obj.Refs {
			if !seen[r.Label] {
				seen[r.Label] = true
				out[r.Label]++
			}
		}
	}
	return out
}

// analysis is the query-shape information the optimizer needs.
type analysis struct {
	// fromConcepts: from-variable -> concept name ("" when not a simple
	// ANNODA-GML.<Concept> clause).
	fromConcepts map[string]string
	// concepts that must be populated in the fused graph.
	needed map[string]bool
	// needAll: a wildcard path forces every concept in.
	needAll bool
	// pushdown: from-variable -> single-variable conjuncts safe to apply
	// at the source.
	pushdown map[string][]lorel.Cond
}

func (a *analysis) needs(concept string) bool { return a.needAll || a.needed[concept] }

// cacheTags derives the invalidation tags for a query's cached result: the
// concepts whose source data the computation depended on. A query that
// pruned a source cannot be invalidated by that source changing; one that
// touched everything (wildcard paths, or pruning disabled so every source
// participates) is tagged "*" and falls to any source change.
func (a *analysis) cacheTags() []string {
	if a.needAll || len(a.needed) == 0 {
		return []string{"*"}
	}
	tags := make([]string, 0, len(a.needed))
	for c := range a.needed {
		tags = append(tags, c)
	}
	sort.Strings(tags)
	return tags
}

var conceptNames = map[string]string{
	"gene": "Gene", "annotation": "Annotation", "disease": "Disease", "protein": "Protein",
}

// linkContrib declares which labels of a linked entity also describe the
// gene itself; fusion feeds them into reconciliation.
var linkContrib = map[string][]struct{ From, To string }{
	"Disease":    {{From: "Symbol", To: "Symbol"}, {From: "Position", To: "Position"}},
	"Annotation": {{From: "Organism", To: "Organism"}},
	"Protein":    {{From: "Symbol", To: "Symbol"}, {From: "Organism", To: "Organism"}, {From: "Description", To: "Description"}},
}

// reconciledLabels are the gene attributes reconciliation applies to.
var reconciledLabels = []string{"Symbol", "Organism", "Position", "Description"}

func (m *Manager) analyze(q *lorel.Query) (*analysis, error) {
	an := &analysis{
		fromConcepts: map[string]string{},
		needed:       map[string]bool{},
		pushdown:     map[string][]lorel.Cond{},
	}
	vars := map[string]bool{}
	for _, f := range q.From {
		name := f.BindName()
		vars[name] = true
		if !strings.EqualFold(f.Path.Base, "ANNODA-GML") {
			// Chained variable (e.g. "G.Annotation A"): no concept info.
			if _, ok := vars[f.Path.Base]; !ok {
				return nil, fmt.Errorf("mediator: from clause base %q is neither ANNODA-GML nor a bound variable", f.Path.Base)
			}
			an.fromConcepts[name] = ""
			continue
		}
		concept := ""
		if len(f.Path.Steps) >= 1 {
			if l, ok := f.Path.Steps[0].(lorel.LabelStep); ok {
				concept = conceptNames[strings.ToLower(l.Name)]
			}
		}
		if concept == "" {
			an.needAll = true
		} else if len(f.Path.Steps) == 1 {
			an.fromConcepts[name] = concept
		}
		noteConcept(an, concept)
	}
	// Scan every path in the query for link labels and wildcards.
	paths := collectPaths(q)
	for _, p := range paths {
		for _, s := range p.Steps {
			switch x := s.(type) {
			case lorel.LabelStep:
				if c, ok := conceptNames[strings.ToLower(x.Name)]; ok {
					noteConcept(an, c)
				}
			case lorel.WildcardStep, lorel.AnyPathStep:
				an.needAll = true
			case lorel.GroupStep:
				for _, alt := range x.Alternatives {
					for _, st := range alt {
						if l, ok := st.(lorel.LabelStep); ok {
							if c, ok := conceptNames[strings.ToLower(l.Name)]; ok {
								noteConcept(an, c)
							}
						} else {
							an.needAll = true
						}
					}
				}
			}
		}
	}
	// Pushdown classification. Sound only under PolicyPreferPrimary and
	// only for non-optional attribute labels (see DESIGN.md); the final
	// evaluation re-applies the full where clause regardless. The cost
	// model's verdict is advisory: Explain reports it, nothing obeys it.
	if !m.opts.DisablePushdown && m.opts.Policy == PolicyPreferPrimary {
		for _, conj := range conjuncts(q.Where) {
			onVar, reason := an.classifyConjunct(m.gl, conj)
			if reason != "" {
				continue
			}
			an.pushdown[onVar] = append(an.pushdown[onVar], conj)
		}
	}
	return an, nil
}

// classifyConjunct decides whether one where-clause conjunct is sound to
// evaluate at a source, returning the single from-variable it constrains
// and, when not pushable, the reason. analyze and Explain both go through
// it, so the reported reason can never diverge from the planning decision.
func (an *analysis) classifyConjunct(gl *gml.Global, conj lorel.Cond) (onVar, reason string) {
	ps := condPaths(conj)
	if len(ps) == 0 {
		return "", "no path operands to evaluate at a source"
	}
	for _, p := range ps {
		concept := an.fromConcepts[p.Base]
		if concept == "" {
			return "", fmt.Sprintf("operand base %q is not a simple ANNODA-GML concept binding", p.Base)
		}
		if onVar == "" {
			onVar = p.Base
		} else if onVar != p.Base {
			return "", fmt.Sprintf("conjunct spans variables %s and %s (a join cannot run at one source)", onVar, p.Base)
		}
		if !pushableSteps(gl, concept, p.Steps) {
			return "", fmt.Sprintf("path %s is not a single non-optional atomic attribute of %s", p.String(), concept)
		}
	}
	return onVar, ""
}

// costPushdownMaxSelectivity is the cost gate's threshold: a predicate
// observed to keep more than this fraction of what a source fetches filters
// too little for pre-filtering to pay for itself.
const costPushdownMaxSelectivity = 0.95

// costWouldPush is the stats-estimated cost model's verdict for one sound
// conjunct: push unless the observed selectivity at every mapped source of
// the concept says the predicate keeps nearly everything. An unobserved
// shape defaults to pushing — the same answer the heuristic gives — so the
// cost gate only ever diverges on measured ground.
func (m *Manager) costWouldPush(concept, shape string) (push bool, reason string) {
	worst := -1.0
	worstSrc := ""
	for _, w := range m.reg.All() {
		mp := m.gl.MappingFor(w.Name())
		if mp == nil || mp.Concept != concept {
			continue
		}
		if sel, ok := m.srcStats.Selectivity(w.Name(), shape); ok && sel > worst {
			worst, worstSrc = sel, w.Name()
		}
	}
	if worst < 0 {
		return true, "no observed selectivity for this shape; defaulting to push"
	}
	if worst > costPushdownMaxSelectivity {
		return false, fmt.Sprintf("observed selectivity %.3f at %s keeps nearly everything; pushing buys no reduction", worst, worstSrc)
	}
	return true, fmt.Sprintf("observed selectivity %.3f at %s; pushing reduces the fused population", worst, worstSrc)
}

func noteConcept(an *analysis, c string) {
	if c != "" {
		an.needed[c] = true
	}
}

// pushableSteps reports whether a path suffix touches only non-optional
// atomic attributes of the concept.
func pushableSteps(gl *gml.Global, concept string, steps []lorel.Step) bool {
	c := gl.ConceptByName(concept)
	if c == nil || len(steps) != 1 {
		return false
	}
	l, ok := steps[0].(lorel.LabelStep)
	if !ok {
		return false
	}
	for _, li := range c.Labels {
		if strings.EqualFold(li.Name, l.Name) {
			return !li.Optional && li.Kind != oem.KindComplex
		}
	}
	return false
}

func conjuncts(c lorel.Cond) []lorel.Cond {
	if a, ok := c.(lorel.AndCond); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	if c == nil {
		return nil
	}
	return []lorel.Cond{c}
}

func condPaths(c lorel.Cond) []lorel.Path {
	switch x := c.(type) {
	case lorel.CmpCond:
		var out []lorel.Path
		if x.L.Path != nil {
			out = append(out, *x.L.Path)
		}
		if x.R.Path != nil {
			out = append(out, *x.R.Path)
		}
		return out
	case lorel.ExistsCond:
		return []lorel.Path{x.P}
	case lorel.AndCond:
		return append(condPaths(x.L), condPaths(x.R)...)
	case lorel.OrCond:
		return append(condPaths(x.L), condPaths(x.R)...)
	case lorel.NotCond:
		return condPaths(x.E)
	}
	return nil
}

func collectPaths(q *lorel.Query) []lorel.Path {
	var out []lorel.Path
	for _, s := range q.Select {
		out = append(out, s.Path)
	}
	for _, f := range q.From {
		out = append(out, f.Path)
	}
	return append(out, condPaths(q.Where)...)
}

// population is one source's translated entities after pushdown filtering.
// graph is the translation's graph — the shared memoized one or a private
// one, read-only either way — and entities the kept subset of its entities.
type population struct {
	source       string
	concept      string
	graph        *oem.Graph
	entities     []oem.OID
	fetchedCount int
	// translation reports whether the fetch read the memoized translation
	// or built one (see Stats.Translation).
	translation string
	// hashes holds the structural fingerprint of each kept entity's
	// source-model form, parallel to entities. Populated only for recorded
	// (snapshot-building) fetches — the delta subsystem keys its
	// bookkeeping by these.
	hashes []uint64
	// fallbacks counts entities kept because a pushed-down predicate
	// errored at the source (see Stats.PushdownFallbacks).
	fallbacks int
}

// fetch reads each relevant source's translated population in parallel,
// applying the pushed-down predicates. hashed requests per-entity structural
// hashes (snapshot builds need them; per-query fetches skip the extra pass).
func (m *Manager) fetch(an *analysis, stats *Stats, hashed bool, tr *obs.Trace) ([]*population, error) {
	type job struct {
		mapping *gml.SourceMapping
		w       wrapper.Wrapper
	}
	var jobs []job
	mapped := map[string]bool{}
	for _, w := range m.reg.All() {
		mp := m.gl.MappingFor(w.Name())
		if mp == nil {
			continue // registered but unmapped: cannot participate
		}
		mapped[w.Name()] = true
		if !an.needs(mp.Concept) {
			stats.SourcesPruned = append(stats.SourcesPruned, w.Name())
			continue
		}
		stats.SourcesQueried = append(stats.SourcesQueried, w.Name())
		jobs = append(jobs, job{mapping: mp, w: w})
	}
	m.translations.retain(mapped)
	pushed := an.pushGroups()

	pops := make([]*population, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, m.opts.Workers)
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Timed unconditionally (not just under tracing): the duration
			// feeds the statistics table's fetch-latency EWMA, and one clock
			// pair per source fetch is noise next to the fetch itself.
			t0 := obs.Now()
			groups := pushed[j.mapping.Concept]
			pop, err := m.fetchOne(j.w, j.mapping, groups, hashed, tr)
			if err == nil {
				m.srcStats.ObserveFetch(j.w.Name(), obs.Since(t0))
			}
			if tr != nil {
				stage := obs.StageFetch
				if len(groups) > 0 {
					stage = obs.StagePushdown
				}
				tr.SpanNote(stage, t0, j.w.Name())
			}
			if err != nil {
				errs[i] = err
				return
			}
			pops[i] = pop // Stats maps are written after the wait below to stay race-free
		}()
	}
	wg.Wait()
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.w.Name()
	}
	degraded, err := m.classifyFetchErrors(names, errs)
	if err != nil {
		return nil, err
	}
	if degraded != nil {
		stats.DegradedSources = degraded
		// A failed source contributed no population; drop its nil slot so
		// fusion sees only the healthy subset.
		kept := pops[:0]
		for _, p := range pops {
			if p != nil {
				kept = append(kept, p)
			}
		}
		pops = kept
	}
	stats.Translation = make(map[string]string, len(pops))
	for _, p := range pops {
		stats.Fetched[p.source] = p.fetchedCount
		stats.Kept[p.source] = len(p.entities)
		stats.Translation[p.source] = p.translation
		stats.PushdownFallbacks += p.fallbacks
		if p.fetchedCount != len(p.entities) {
			stats.PushdownUsed = true
		}
	}
	return pops, nil
}

// classifyFetchErrors decides whether a fan-out's failures fail the whole
// fetch or merely degrade it. A failure is fatal when strict mode is on
// (MinSources <= 0), when the source is listed in RequireSources, or when
// too few sources survive; a fatal outcome reports EVERY failed source
// via errors.Join, not an arbitrary first one. Otherwise the failed
// sources come back as the sorted degraded set and fusion proceeds
// without them.
func (m *Manager) classifyFetchErrors(names []string, errs []error) ([]string, error) {
	nfail := 0
	fatal := false
	for i, err := range errs {
		if err == nil {
			continue
		}
		nfail++
		if m.opts.MinSources <= 0 || m.sourceRequired(names[i]) {
			fatal = true
		}
	}
	if nfail == 0 {
		return nil, nil
	}
	if !fatal && len(names)-nfail < m.opts.MinSources {
		fatal = true
	}
	if fatal {
		joined := make([]error, 0, nfail)
		for i, err := range errs {
			if err != nil {
				joined = append(joined, fmt.Errorf("mediator: source %s: %w", names[i], err))
			}
		}
		return nil, errors.Join(joined...)
	}
	degraded := make([]string, 0, nfail)
	for i, err := range errs {
		if err != nil {
			degraded = append(degraded, names[i])
		}
	}
	sort.Strings(degraded)
	return degraded, nil
}

func (m *Manager) sourceRequired(name string) bool {
	for _, r := range m.opts.RequireSources {
		if r == name {
			return true
		}
	}
	return false
}

// pushGroup is the pushed-down conjuncts of one from-variable: an entity
// satisfies the group when every conjunct holds with v bound to it.
type pushGroup struct {
	v     string
	conds []lorel.Cond
}

// pushGroups arranges the pushed-down conjuncts by concept, one group per
// from-variable, in variable order. Variables bind independently, so an
// entity may be dropped at the source only when no variable of its concept
// could bind it: a concept one of whose variables carries no pushed conjunct
// is not filtered at all, and fetchOne keeps an entity that satisfies any
// one group.
func (a *analysis) pushGroups() map[string][]pushGroup {
	vars := make([]string, 0, len(a.fromConcepts))
	for v := range a.fromConcepts {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	out := map[string][]pushGroup{}
	unfiltered := map[string]bool{}
	for _, v := range vars {
		concept := a.fromConcepts[v]
		switch {
		case concept == "" || unfiltered[concept]:
		case len(a.pushdown[v]) == 0:
			unfiltered[concept] = true
			delete(out, concept)
		default:
			out[concept] = append(out[concept], pushGroup{v: v, conds: a.pushdown[v]})
		}
	}
	return out
}

// fetchOne reads one source's translated population and keeps the entities
// the pushed-down groups let through.
func (m *Manager) fetchOne(w wrapper.Wrapper, mp *gml.SourceMapping, groups []pushGroup, hashed bool, tr *obs.Trace) (*population, error) {
	src, err := m.sourceModel(context.Background(), w, tr)
	if err != nil {
		return nil, err
	}
	// Recorded fetches read a live memo but do not create one: the epoch
	// they build keeps the fused copy.
	tl, outcome, err := m.translated(w, mp, src, !hashed, tr)
	if err != nil {
		return nil, err
	}
	pop := &population{source: w.Name(), concept: mp.Concept, graph: tl.graph,
		entities: tl.entities, fetchedCount: len(tl.entities), translation: outcome}
	if len(groups) > 0 {
		if err := m.pushdown(pop, groups); err != nil {
			return nil, err
		}
	}
	if hashed {
		// entities is a subsequence of tl.entities, which is parallel to
		// the source model's entity list.
		pop.hashes = make([]uint64, 0, len(pop.entities))
		srcEntities := src.Children(src.Root(w.Name()), mp.Entity)
		for i, te := range tl.entities {
			if k := len(pop.hashes); k < len(pop.entities) && pop.entities[k] == te {
				pop.hashes = append(pop.hashes, delta.HashEntity(src, srcEntities[i]))
			}
		}
	}
	return pop, nil
}

// pushdown narrows pop.entities — on entry the whole translated population,
// shared with the memo and so never written — to the entities that satisfy
// at least one group.
func (m *Manager) pushdown(pop *population, groups []pushGroup) error {
	// Compile each pushed-down predicate once per source, not once per
	// entity; the per-entity loop below only evaluates. evals/passes feed
	// the statistics table: passes/evals is the predicate's observed
	// selectivity at this source (conditional on earlier predicates in the
	// chain, since a rejected entity skips the rest).
	type compiledPush struct {
		shape  string
		plan   *lorel.CondPlan
		evals  int
		passes int
	}
	plans := make([][]compiledPush, len(groups))
	for gi, g := range groups {
		for _, c := range g.conds {
			cp, err := lorel.CompileCond(c)
			if err != nil {
				return err
			}
			plans[gi] = append(plans[gi], compiledPush{shape: lorel.CondString(c), plan: cp})
		}
	}
	var kept []oem.OID
	env := make(map[string]oem.OID, 1)
	for _, te := range pop.entities {
		keep := false
		for gi := 0; gi < len(groups) && !keep; gi++ {
			clear(env)
			env[groups[gi].v] = te
			keep = true
			for pi := range plans[gi] {
				pc := &plans[gi][pi]
				ok, err := pc.plan.Eval(pop.graph, env)
				if err != nil {
					// Pushdown must never break a query; fall back to keeping
					// the entity and let the final evaluation decide. The
					// fallback is counted so it cannot hide silently.
					pop.fallbacks++
					ok = true
				}
				pc.evals++
				if ok {
					pc.passes++
				} else {
					keep = false
					break
				}
			}
		}
		if keep {
			kept = append(kept, te)
		}
	}
	pop.entities = kept
	for _, group := range plans {
		for _, pc := range group {
			m.srcStats.ObservePushdown(pop.source, pc.shape, pc.evals, pc.passes)
		}
	}
	return nil
}
