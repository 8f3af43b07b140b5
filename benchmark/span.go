package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to trace-<workload>.jsonl.
// Spans of one request share Trace; Parent is 0 on the request's root span.
type span struct {
	Trace   int64              `json:"trace"`
	Span    int64              `json:"span"`
	Parent  int64              `json:"parent"`
	Name    string             `json:"name"`  // the public function called, e.g. "Manager.QueryStringCtx"
	Layer   string             `json:"layer"` // module name; "client" for the generator
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Note    string             `json:"note,omitempty"`  // outcome: "hit", "miss:epoch", a source name
	Attrs   map[string]float64 `json:"attrs,omitempty"` // counts taken at the boundary: allocs, bytes, rows
}

func (s span) durMS() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced runs execute the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// liveSpan is a started span. The zero value (from a nil tracer) is inert.
type liveSpan struct {
	t  *tracer
	s  span
	ms *runtime.MemStats // non-nil when the span also counts allocations
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// root starts a request's root span.
func (t *tracer) root(name string) liveSpan {
	if t == nil {
		return liveSpan{}
	}
	id := t.id()
	return liveSpan{t: t, s: span{Trace: id, Span: id, Name: name, Layer: "client", StartNS: int64(time.Since(t.t0))}}
}

// child starts a span for a call into a layer made on behalf of p.
func (p liveSpan) child(name, layer string) liveSpan {
	if p.t == nil {
		return liveSpan{}
	}
	return liveSpan{t: p.t, s: span{
		Trace: p.s.Trace, Span: p.t.id(), Parent: p.s.Span,
		Name: name, Layer: layer, StartNS: int64(time.Since(p.t.t0)),
	}}
}

// childAllocs is child plus allocation counts (runtime.ReadMemStats deltas,
// recorded as attrs "allocs" and "alloc_bytes"). ReadMemStats stops the
// world, so only the single-goroutine replay uses it.
func (p liveSpan) childAllocs(name, layer string) liveSpan {
	c := p.child(name, layer)
	if c.t != nil {
		c.ms = new(runtime.MemStats)
		runtime.ReadMemStats(c.ms)
		c.s.StartNS = int64(time.Since(c.t.t0))
	}
	return c
}

func (l *liveSpan) attr(key string, v float64) {
	if l.t == nil {
		return
	}
	if l.s.Attrs == nil {
		l.s.Attrs = map[string]float64{}
	}
	l.s.Attrs[key] = v
}

// end closes the span with an outcome note and stores it.
func (l *liveSpan) end(note string) {
	if l.t == nil {
		return
	}
	l.s.EndNS = int64(time.Since(l.t.t0))
	l.s.Note = note
	if l.ms != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		l.attr("allocs", float64(after.Mallocs-l.ms.Mallocs))
		l.attr("alloc_bytes", float64(after.TotalAlloc-l.ms.TotalAlloc))
	}
	l.t.add(l.s)
}

// interval records a child span whose duration the layer itself reported
// (mediator.Stats), laid out from start; it returns the span's end.
func (p liveSpan) interval(name, layer string, startNS int64, d time.Duration) int64 {
	if p.t == nil || d <= 0 {
		return startNS
	}
	s := span{Trace: p.s.Trace, Span: p.t.id(), Parent: p.s.Span, Name: name, Layer: layer,
		StartNS: startNS, EndNS: startNS + int64(d), Note: "reported"}
	p.t.add(s)
	return s.EndNS
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// selfTimeByLayer sums, per layer, each span's self time: its duration
// minus the part of that interval its child spans cover.
func selfTimeByLayer(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upTo := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upTo), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.Layer] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return out
}

// spanSet selects spans by name and, when note is non-empty, outcome.
func spanSet(spans []span, name, note string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && (note == "" || s.Note == note) {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.durMS()
	}
	return out
}

func attrs(spans []span, key string) []float64 {
	var out []float64
	for _, s := range spans {
		if v, ok := s.Attrs[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// traceMetrics recomputes the trace-pass layer metrics from a span file's
// contents: medians of span durations, means of the counts taken at the
// same boundaries. A call the workload never makes yields null.
func traceMetrics(spans []span, m metrics) {
	medianOf := func(metric, name, note string) {
		m.set(metric, median(durations(spanSet(spans, name, note))))
	}
	kb := func(metric, name, note, key string) {
		m.set(metric, mean(attrs(spanSet(spans, name, note), key))/1024)
	}

	medianOf("core.ask_hit_ms", "System.AskCtx", "hit")
	m.set("core.ask_hit_allocs", mean(attrs(spanSet(spans, "System.AskCtx", "hit"), "allocs")))
	kb("core.ask_hit_alloc_kb", "System.AskCtx", "hit", "alloc_bytes")
	medianOf("core.to_lorel_ms", "core.ToLorel", "")
	medianOf("mediator.query_hit_ms", "Manager.QueryStringCtx", "hit")
	ask, okA := m.get("core.ask_hit_ms")
	toLorel, okT := m.get("core.to_lorel_ms")
	queryHit, okQ := m.get("mediator.query_hit_ms")
	if okA && okT && okQ {
		m.set("core.view_build_ms", ask-toLorel-queryHit)
	} else {
		m.set("core.view_build_ms", nan)
	}

	for _, route := range []string{"epoch", "pipeline", "pushdown"} {
		medianOf("mediator.query_miss_ms."+route, "Manager.QueryStringCtx", "miss:"+route)
	}
	kb("mediator.query_miss_alloc_kb.epoch", "Manager.QueryStringCtx", "miss:epoch", "alloc_bytes")
	kb("mediator.query_miss_alloc_kb.pipeline", "Manager.QueryStringCtx", "miss:pipeline", "alloc_bytes")

	medianOf("lorel.parse_ms", "lorel.Parse", "")
	medianOf("lorel.compile_ms", "lorel.Compile", "")
	medianOf("lorel.eval_ms", "Plan.Eval", "")
	kb("lorel.eval_alloc_kb", "Plan.Eval", "", "alloc_bytes")
	m.set("lorel.rows_per_eval", mean(attrs(spanSet(spans, "Plan.Eval", ""), "rows")))

	medianOf("oem.text_ms", "oem.TextString", "")
	kb("oem.text_kb", "oem.TextString", "", "bytes")
	medianOf("oem.encode_binary_ms", "oem.EncodeBinary", "")
	medianOf("oem.decode_binary_ms", "oem.DecodeBinary", "")
	medianOf("oem.clone_ms", "oem.Clone", "")
	m.set("oem.fused_objects", mean(attrs(spanSet(spans, "oem.EncodeBinary", ""), "objects")))

	for _, src := range []string{"LocusLink", "GO", "OMIM", "ProtDB"} {
		medianOf("wrapper.model_ms."+src, "wrapper.Model", src)
	}
	medianOf("gml.build_ms", "gml.Build", "")

	medianOf("snapstore.checkpoint_ms", "Manager.SaveSnapshot", "")
	m.set("snapstore.checkpoint_mb", mean(attrs(spanSet(spans, "Manager.SaveSnapshot", ""), "bytes"))/(1<<20))
	medianOf("snapstore.restore_ms", "Manager.LoadSnapshot", "")
	if _, ok := m.get("navigate.reindex_ms"); !ok { // refresh_churn's measure pass times it under load
		medianOf("navigate.reindex_ms", "Resolver.Reindex", "")
	}
}
