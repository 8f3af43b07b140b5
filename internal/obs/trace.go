package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named stage inside a trace: where the time went.
type Span struct {
	Stage    string
	Offset   time.Duration // from trace start
	Duration time.Duration
	Note     string
}

// Trace records one operation: an ID, an op name, free-form detail, and
// the spans its stages recorded along the way. All methods are safe on a
// nil receiver — that is the fast path when tracing is off or the request
// was sampled out. Span appends take a small mutex because parallel fetch
// and AskBatchCtx workers record into the same trace concurrently.
//
// After Finish a trace is immutable and published to the tracer's rings,
// where /api/debug/traces readers walk it lock-free.
type Trace struct {
	tracer *Tracer
	id     string
	op     string
	start  time.Time

	mu     sync.Mutex
	detail string
	spans  []Span
	sbuf   [4]Span // inline backing array: the common ask records ≤4 spans
	end    time.Time
	err    string
	done   bool
}

// Span records a stage that started at start and ends now.
func (t *Trace) Span(stage string, start time.Time) {
	if t == nil {
		return
	}
	t.span(stage, start, time.Since(start), "")
}

// SpanNote is Span with an attached note (a query string, a source name,
// a hit/miss disposition).
func (t *Trace) SpanNote(stage string, start time.Time, note string) {
	if t == nil {
		return
	}
	t.span(stage, start, time.Since(start), note)
}

// SpanDur records a stage whose duration the caller already measured.
func (t *Trace) SpanDur(stage string, start time.Time, d time.Duration, note string) {
	if t == nil {
		return
	}
	t.span(stage, start, d, note)
}

func (t *Trace) span(stage string, start time.Time, d time.Duration, note string) {
	off := start.Sub(t.start)
	t.mu.Lock()
	if !t.done {
		if t.spans == nil {
			t.spans = t.sbuf[:0]
		}
		t.spans = append(t.spans, Span{Stage: stage, Offset: off, Duration: d, Note: note})
	}
	t.mu.Unlock()
}

// Annotate appends detail text (the mediator adds the canonical query so
// a trace names what it computed, not just which route it came in on).
func (t *Trace) Annotate(s string) {
	if t == nil || s == "" {
		return
	}
	t.mu.Lock()
	if !t.done {
		if t.detail == "" {
			t.detail = s
		} else {
			t.detail += " | " + s
		}
	}
	t.mu.Unlock()
}

// SetErr records the operation's error (nil clears nothing and is safe).
func (t *Trace) SetErr(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.err = err.Error()
	}
	t.mu.Unlock()
}

// Finish seals the trace and publishes it to the recent ring (and the
// slow ring + slow-query log when over threshold). Idempotent; safe on
// nil.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.end = end
	spans := t.spans
	t.mu.Unlock()
	tr := t.tracer
	if tr == nil {
		return
	}
	if m := tr.m; m != nil {
		for i := range spans {
			m.stage(spans[i].Stage).Observe(spans[i].Duration)
		}
		m.TraceSampled.Inc()
	}
	tr.recent.push(t)
	if d := end.Sub(t.start); d >= tr.slowThresh {
		tr.slow.push(t)
		if tr.m != nil {
			tr.m.TraceSlow.Inc()
		}
		if tr.logf != nil {
			tr.logf("slow op: id=%s op=%s dur=%s detail=%q err=%q stages=%s",
				t.id, t.op, d, t.detail, t.err, topStages(spans))
		}
	}
}

// topStages renders the slowest spans of a finished trace for the
// slow-query log — "[eval=12ms fetch=3ms fuse=1ms]" — so the log line
// itself says where the time went without a trip to /api/debug/traces.
// At most three stages are listed, slowest first.
func topStages(spans []Span) string {
	if len(spans) == 0 {
		return "[]"
	}
	top := append([]Span(nil), spans...)
	sort.Slice(top, func(i, j int) bool { return top[i].Duration > top[j].Duration })
	if len(top) > 3 {
		top = top[:3]
	}
	var sb strings.Builder
	sb.WriteByte('[')
	for i, s := range top {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(s.Stage)
		sb.WriteByte('=')
		sb.WriteString(s.Duration.Round(time.Microsecond).String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// ring is a lock-free fixed-capacity ring of finished traces: writers
// claim a slot with one atomic add, readers load slot pointers. A slot's
// trace is always fully built before the pointer lands (Finish publishes
// after sealing), so snapshots never observe a half-written trace.
type ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

func newRing(n int) ring {
	return ring{slots: make([]atomic.Pointer[Trace], n)}
}

func (r *ring) push(t *Trace) {
	if len(r.slots) == 0 {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot returns the ring's traces, newest first.
func (r *ring) snapshot() []*Trace {
	n := len(r.slots)
	if n == 0 {
		return nil
	}
	head := r.next.Load()
	out := make([]*Trace, 0, n)
	for k := 0; k < n; k++ {
		// Walk backwards from the most recently claimed slot.
		idx := (head + uint64(n) - 1 - uint64(k)) % uint64(n)
		if t := r.slots[idx].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Tracer samples, records, and retains traces. A nil *Tracer disables
// tracing.
type Tracer struct {
	sampleEvery uint64
	slowThresh  time.Duration
	logf        func(format string, args ...any)
	m           *Metrics

	sampleCtr atomic.Uint64
	recent    ring
	slow      ring
}

func newTracer(cfg Config, m *Metrics) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = defaultRingSize
	}
	if cfg.SlowRingSize <= 0 {
		cfg.SlowRingSize = defaultSlowRingSize
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = defaultSlowThreshold
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	return &Tracer{
		sampleEvery: uint64(cfg.SampleEvery),
		slowThresh:  cfg.SlowThreshold,
		logf:        cfg.Logf,
		m:           m,
		recent:      newRing(cfg.RingSize),
		slow:        newRing(cfg.SlowRingSize),
	}
}

// Start begins a trace with a fresh request ID, subject to sampling.
// Returns nil (a valid, inert trace) when sampled out or tr is nil.
func (tr *Tracer) Start(op, detail string) *Trace {
	if tr == nil {
		return nil
	}
	if tr.sampleEvery > 1 && tr.sampleCtr.Add(1)%tr.sampleEvery != 0 {
		return nil
	}
	return tr.newTrace(NewRequestID(), op, detail)
}

// StartID is Start with a caller-chosen ID (the server's request ID).
// Sampling still applies.
func (tr *Tracer) StartID(id, op, detail string) *Trace {
	if tr == nil {
		return nil
	}
	if tr.sampleEvery > 1 && tr.sampleCtr.Add(1)%tr.sampleEvery != 0 {
		return nil
	}
	return tr.newTrace(id, op, detail)
}

func (tr *Tracer) newTrace(id, op, detail string) *Trace {
	t := &Trace{tracer: tr, id: id, op: op, start: time.Now()}
	t.detail = detail
	return t
}

// SlowThreshold reports the configured slow-trace threshold.
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.slowThresh
}

// SpanView is the JSON shape of one span.
type SpanView struct {
	Stage        string `json:"stage"`
	OffsetMicros int64  `json:"offset_micros"`
	DurMicros    int64  `json:"dur_micros"`
	Note         string `json:"note,omitempty"`
}

// TraceView is the JSON shape of one finished trace, as served by
// /api/debug/traces and printed by `annoda traces`.
type TraceView struct {
	ID        string     `json:"id"`
	Op        string     `json:"op"`
	Detail    string     `json:"detail,omitempty"`
	Start     time.Time  `json:"start"`
	DurMicros int64      `json:"dur_micros"`
	Err       string     `json:"error,omitempty"`
	Spans     []SpanView `json:"spans,omitempty"`
}

func (t *Trace) view() TraceView {
	// Finished traces are immutable; no lock needed.
	v := TraceView{
		ID:        t.id,
		Op:        t.op,
		Detail:    t.detail,
		Start:     t.start,
		DurMicros: t.end.Sub(t.start).Microseconds(),
		Err:       t.err,
	}
	if len(t.spans) > 0 {
		v.Spans = make([]SpanView, len(t.spans))
		for i, s := range t.spans {
			v.Spans[i] = SpanView{
				Stage:        s.Stage,
				OffsetMicros: s.Offset.Microseconds(),
				DurMicros:    s.Duration.Microseconds(),
				Note:         s.Note,
			}
		}
	}
	return v
}

func views(ts []*Trace) []TraceView {
	out := make([]TraceView, len(ts))
	for i, t := range ts {
		out[i] = t.view()
	}
	return out
}

// Recent returns the recent-trace ring, newest first.
func (tr *Tracer) Recent() []TraceView {
	if tr == nil {
		return nil
	}
	return views(tr.recent.snapshot())
}

// Slow returns the slow-trace ring, newest first.
func (tr *Tracer) Slow() []TraceView {
	if tr == nil {
		return nil
	}
	return views(tr.slow.snapshot())
}

// Request IDs: an 8-hex-digit per-process prefix (crypto/rand, so two
// servers behind one balancer do not collide) plus a monotonically
// increasing hex counter. Cheap enough to mint for every request.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := crand.Read(b[:]); err != nil {
			// Fall back to a fixed prefix; IDs stay unique per process.
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCtr atomic.Uint64
)

// NewRequestID mints a process-unique request ID like "3f9ac81d-0000002a".
func NewRequestID() string {
	n := reqIDCtr.Add(1)
	buf := make([]byte, 0, 17)
	buf = append(buf, reqIDPrefix...)
	buf = append(buf, '-')
	if n < 1<<32 {
		// Zero-pad to 8 digits for visual alignment in logs.
		s := strconv.FormatUint(n, 16)
		for i := len(s); i < 8; i++ {
			buf = append(buf, '0')
		}
		buf = append(buf, s...)
	} else {
		buf = strconv.AppendUint(buf, n, 16)
	}
	return string(buf)
}

// ctxKey is the context key for a request's trace.
type ctxKey struct{}

// ContextWithTrace attaches t to ctx. Attaching nil returns ctx
// unchanged, so untraced requests add no context layer.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
