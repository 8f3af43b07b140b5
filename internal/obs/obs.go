// Package obs is ANNODA's dependency-free observability layer: per-request
// traces, atomic metrics with a hand-rolled Prometheus text exposition, and
// the one sanctioned home for wall-clock reads (Now/Since — enforced by the
// nowalltime analyzer).
//
// Design constraints, in order:
//
//  1. The nil fast path is free. Every method on *Obs, *Trace, *Counter,
//     *Gauge and *Histogram is nil-receiver-safe, so instrumented code is
//     written unconditionally (`tr.Span(...)`, `h.Observe(...)`) and costs
//     one predictable branch when observability is off.
//  2. The hot path stays honest. A histogram observation is two atomic
//     adds; a trace is one allocation plus lock-free ring publication at
//     Finish. E19 (EXPERIMENTS.md) pins the overhead of tracing every
//     request under the 5% acceptance budget.
//  3. No dependencies. The Prometheus exposition (text format 0.0.4) is
//     written and validated by hand; see expfmt.go.
//
// A *Obs bundles the three pieces most callers want together: a metric
// Registry, the pre-registered ANNODA metric families (Metrics), and a
// Tracer whose finished traces feed the per-stage histograms.
package obs

import "time"

// Config tunes a new Obs. The zero value is a sensible default: trace
// every request, keep 256 recent and 64 slow traces, and call anything
// slower than 250ms slow.
type Config struct {
	// SampleEvery traces one request in N. 0 or 1 traces everything —
	// the default, because debugging wants the request you just made,
	// not one in sixteen. Raise it on hot fleets where the per-request
	// allocation shows up.
	SampleEvery int
	// RingSize is the capacity of the recent-trace ring (default 256).
	RingSize int
	// SlowRingSize is the capacity of the slow-trace ring (default 64).
	SlowRingSize int
	// SlowThreshold promotes a finished trace into the slow ring and the
	// slow-query log (default 250ms).
	SlowThreshold time.Duration
	// Logf, when set, receives one line per slow trace (the slow-query
	// log). nil disables logging; the slow ring still fills.
	Logf func(format string, args ...any)
}

const (
	defaultRingSize      = 256
	defaultSlowRingSize  = 64
	defaultSlowThreshold = 250 * time.Millisecond
)

// Obs bundles a metric registry, the ANNODA metric families, and a tracer.
// A nil *Obs is valid and disables everything.
type Obs struct {
	Reg    *Registry
	M      *Metrics
	Tracer *Tracer
}

// New builds an Obs with its own Registry, the standard ANNODA metric
// families pre-registered, and a Tracer wired to feed stage histograms.
func New(cfg Config) *Obs {
	reg := NewRegistry()
	m := newMetrics(reg)
	registerRuntime(reg)
	return &Obs{Reg: reg, M: m, Tracer: newTracer(cfg, m)}
}

// Start begins a trace (subject to sampling). Returns nil — a valid,
// inert trace — when o is nil or the request is sampled out.
func (o *Obs) Start(op, detail string) *Trace {
	if o == nil {
		return nil
	}
	return o.Tracer.Start(op, detail)
}

// StartID is Start with a caller-chosen trace ID (the server passes the
// request ID so /api/debug/traces correlates with X-Request-ID).
func (o *Obs) StartID(id, op, detail string) *Trace {
	if o == nil {
		return nil
	}
	return o.Tracer.StartID(id, op, detail)
}

// Stage names recorded by the wired call sites. Constants rather than ad
// hoc strings so the pre-resolved stage histograms in Metrics stay in sync
// with what the mediator and server actually record.
const (
	StageCacheLookup      = "cache_lookup"
	StageSingleflightWait = "singleflight_wait"
	StageEpochPin         = "epoch_pin"
	StagePlanCompile      = "plan_compile"
	StagePushdown         = "pushdown"
	StageTranslate        = "translate" // source model -> global vocabulary; note "<source> memo" or "<source> built"
	StageFetch            = "fetch"
	StageFuse             = "fuse"
	StageEval             = "eval"
	StageAnswerImport     = "answer_import" // inside eval: selected objects -> answer graph; note "<n> objects"
	StageRender           = "render"        // answer -> response bytes; note "memo" or "built"
	StageWrite            = "write"         // response bytes -> ResponseWriter
	StageDiff             = "diff"
	StageDeltaPatch       = "delta_patch"
	StageWALAppend        = "wal_append"
	StageCheckpoint       = "checkpoint"
	StageRestore          = "restore"
	StageInvalidate       = "invalidate"
	StageStandingEval     = "standing_eval"
	StageFeedPublish      = "feed_publish"
	StageRetry            = "fetch_retry"
	StageProbe            = "health_probe"
)

// knownStages lists every constant above, in recording order, for the
// pre-resolved stage histogram table.
var knownStages = []string{
	StageCacheLookup, StageSingleflightWait, StageEpochPin,
	StagePlanCompile, StagePushdown, StageTranslate, StageFetch, StageFuse, StageEval, StageAnswerImport,
	StageRender, StageWrite,
	StageDiff, StageDeltaPatch, StageWALAppend, StageCheckpoint,
	StageRestore, StageInvalidate, StageStandingEval, StageFeedPublish,
	StageRetry, StageProbe,
}
