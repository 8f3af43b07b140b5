package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Latency histograms use log2 buckets over nanoseconds: finite upper
// bounds 2^histMinExp .. 2^histMaxExp ns (≈1µs .. ≈17s), one overflow
// (+Inf) bucket above. An observation is two atomic adds and a
// bits.Len64 — no floats, no lock, no search.
const (
	histMinExp  = 10                          // 2^10 ns ≈ 1.02 µs
	histMaxExp  = 34                          // 2^34 ns ≈ 17.2 s
	histBuckets = histMaxExp - histMinExp + 1 // finite buckets (25)
)

// Counter is a monotone uint64, incremented at the site where its event
// happens. A nil *Counter ignores everything.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. A nil *Gauge ignores everything.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed log2-bucket latency histogram. A nil *Histogram
// ignores observations.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64 // last slot is +Inf
	sum     atomic.Uint64                  // nanoseconds
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.sum.Add(uint64(ns))
	idx := 0
	if ns > 1 {
		// Smallest e with ns <= 2^e, so the le="2^e" bucket contract
		// holds exactly at bucket boundaries.
		if e := bits.Len64(uint64(ns) - 1); e > histMinExp {
			idx = e - histMinExp
			if idx > histBuckets {
				idx = histBuckets
			}
		}
	}
	h.buckets[idx].Add(1)
}

// metricKind discriminates family types in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled instance within a family: an owned instrument,
// or fn for a function-backed counter/gauge whose value another package
// owns and the registry reads at gather time instead of keeping a copy.
type series struct {
	vals []string // label values, parallel to family.labels
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() int64
}

// value reads a counter or gauge series.
func (s *series) value() int64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.c != nil:
		return int64(s.c.Value())
	default:
		return s.g.Value()
	}
}

// family is one exposition family: a name, HELP text, a kind, a label
// schema, and the labelled series created so far.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string

	mu     sync.RWMutex
	series map[string]*series
}

// with returns (creating on first use) the series for the given label
// values. The read path is an RLock + map hit. A non-nil fn makes a created
// series function-backed; an existing series is returned unchanged.
func (f *family) with(vals []string, fn func() int64) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{vals: append([]string(nil), vals...), fn: fn}
	switch {
	case fn != nil:
	case f.kind == kindCounter:
		s.c = &Counter{}
	case f.kind == kindGauge:
		s.g = &Gauge{}
	default:
		s.h = &Histogram{}
	}
	f.series[key] = s
	return s
}

// Registry holds metric families and renders them as Prometheus text
// exposition format 0.0.4. Registration is idempotent: asking for an
// existing name returns the existing family (and panics on a kind or
// label-schema mismatch, which is a programming error).
type Registry struct {
	mu     sync.Mutex
	fams   map[string]*family
	gather []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) getFamily(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different kind or label schema", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, kindCounter, nil).with(nil, nil).c
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, kindGauge, nil).with(nil, nil).g
}

// Histogram registers (or fetches) an unlabelled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.getFamily(name, help, kindHistogram, nil).with(nil, nil).h
}

// CounterFunc registers an unlabelled counter read from fn at gather time:
// a count another package already owns (qcache, feed) is exposed without a
// second copy of it. fn must be monotone and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.getFamily(name, help, kindCounter, nil).with(nil, fn)
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.getFamily(name, help, kindGauge, nil).with(nil, fn)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.getFamily(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.with(vals, nil).c
}

// Func makes the series for the given label values function-backed (see
// Registry.CounterFunc). Idempotent: an existing series keeps its backing.
func (v *CounterVec) Func(fn func() int64, vals ...string) {
	v.fam.with(vals, fn)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.getFamily(name, help, kindGauge, labels)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.with(vals, nil).g
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ fam *family }

// HistogramVec registers (or fetches) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.getFamily(name, help, kindHistogram, labels)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.with(vals, nil).h
}

// OnGather registers a callback run at the start of every Gather, for
// label-valued gauges whose label set is only known at scrape time
// (per-source health and statistics).
func (r *Registry) OnGather(f func()) {
	r.mu.Lock()
	r.gather = append(r.gather, f)
	r.mu.Unlock()
}

// Family is one gathered metric family: what GET /metrics prints as a
// HELP/TYPE block and /statsz as JSON members.
type Family struct {
	Name, Help, Type string
	Points           []Point
}

// Point is one gathered sample.
type Point struct {
	// Key is the sample's exposition identity — name (with the histogram
	// _bucket/_sum/_count suffix) plus label block — exactly as /metrics
	// prints it.
	Key   string
	Value float64
	// Bucket marks a histogram _bucket sample; compact renderings skip them.
	Bucket bool
}

// Gather reads every series once: families sorted by name, series sorted
// by label values, histograms as cumulative _bucket/_sum/_count with le in
// seconds. Every rendering of the registry (the text exposition, /statsz)
// is produced from this one snapshot, so they cannot disagree.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	gather := append([]func(){}, r.gather...)
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()

	for _, g := range gather {
		g()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		f.mu.RLock()
		ser := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ser = append(ser, s)
		}
		f.mu.RUnlock()
		if len(ser) == 0 {
			continue
		}
		sort.Slice(ser, func(i, j int) bool {
			return strings.Join(ser[i].vals, "\x00") < strings.Join(ser[j].vals, "\x00")
		})
		fam := Family{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range ser {
			fam.Points = f.appendPoints(fam.Points, s)
		}
		out = append(out, fam)
	}
	return out
}

func (f *family) appendPoints(pts []Point, s *series) []Point {
	if f.kind != kindHistogram {
		return append(pts, Point{Key: sampleKey(f.name, f.labels, s.vals, ""), Value: float64(s.value())})
	}
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		cum += s.h.buckets[i].Load()
		le := "+Inf"
		if i < histBuckets {
			le = strconv.FormatFloat(float64(uint64(1)<<(histMinExp+i))/1e9, 'g', -1, 64)
		}
		pts = append(pts, Point{Key: sampleKey(f.name+"_bucket", f.labels, s.vals, le), Value: float64(cum), Bucket: true})
	}
	return append(pts,
		Point{Key: sampleKey(f.name+"_sum", f.labels, s.vals, ""), Value: float64(s.h.sum.Load()) / 1e9},
		Point{Key: sampleKey(f.name+"_count", f.labels, s.vals, ""), Value: float64(cum)})
}

// sampleKey renders `name{labels}`; a non-empty le appends the histogram
// bucket label.
func sampleKey(name string, keys, vals []string, le string) string {
	if len(keys) == 0 && le == "" {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="` + le + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Expose writes Gather() in Prometheus text exposition format 0.0.4.
func (r *Registry) Expose(w io.Writer) error {
	var buf bytes.Buffer
	for _, f := range r.Gather() {
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.Name, f.Type)
		for _, p := range f.Points {
			buf.WriteString(p.Key)
			buf.WriteByte(' ')
			buf.WriteString(formatValue(p.Value))
			buf.WriteByte('\n')
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// formatValue prints integral values (every counter, gauge and bucket
// count) as integers and the rest (histogram sums) in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Handler serves the exposition over HTTP (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var buf bytes.Buffer
		r.Expose(&buf) //nolint:errcheck // bytes.Buffer cannot fail
		w.Write(buf.Bytes())
	})
}

// Metrics is the pre-registered ANNODA metric family set. Handles are
// resolved once at construction so hot paths observe without any map
// lookup. A nil *Metrics (and nil fields) disables everything.
type Metrics struct {
	// Mediator operations, observed unconditionally (not subject to
	// trace sampling) so histogram counts equal observed requests.
	OpDur *HistogramVec // annoda_op_duration_seconds{op}
	OpErr *CounterVec   // annoda_op_errors_total{op}

	// Per-stage latencies, fed from sampled trace spans at Finish.
	StageDur *HistogramVec // annoda_stage_duration_seconds{stage}

	// HTTP server.
	HTTPDur      *HistogramVec // annoda_http_request_duration_seconds{route}
	HTTPResp     *CounterVec   // annoda_http_responses_total{route,class}
	HTTPInFlight *Gauge        // annoda_http_in_flight

	// Durability (observed in the mediator persist path, so snapstore
	// itself stays clock-free and byte-deterministic).
	CkptDur *Histogram // annoda_checkpoint_duration_seconds
	WALDur  *Histogram // annoda_wal_append_duration_seconds

	// Change-feed publication (fan-out latency under the epoch lock).
	FeedPubDur *Histogram // annoda_feed_publish_duration_seconds

	// Tracer self-accounting.
	TraceSampled *Counter // annoda_traces_sampled_total
	TraceSlow    *Counter // annoda_traces_slow_total

	stageH map[string]*Histogram // pre-resolved knownStages handles
}

func newMetrics(reg *Registry) *Metrics {
	m := &Metrics{
		OpDur: reg.HistogramVec("annoda_op_duration_seconds",
			"Latency of mediator operations (every call, independent of trace sampling).", "op"),
		OpErr: reg.CounterVec("annoda_op_errors_total",
			"Mediator operations that returned an error.", "op"),
		StageDur: reg.HistogramVec("annoda_stage_duration_seconds",
			"Latency of named stages inside traced operations (sampled traces only).", "stage"),
		HTTPDur: reg.HistogramVec("annoda_http_request_duration_seconds",
			"HTTP request latency by route.", "route"),
		HTTPResp: reg.CounterVec("annoda_http_responses_total",
			"HTTP responses by route and status class.", "route", "class"),
		HTTPInFlight: reg.Gauge("annoda_http_in_flight",
			"HTTP requests currently being served."),
		CkptDur: reg.Histogram("annoda_checkpoint_duration_seconds",
			"Time to encode and write one snapshot checkpoint."),
		WALDur: reg.Histogram("annoda_wal_append_duration_seconds",
			"Time to encode and append one delta WAL record."),
		FeedPubDur: reg.Histogram("annoda_feed_publish_duration_seconds",
			"Time to fan one change event out to feed subscribers."),
		TraceSampled: reg.Counter("annoda_traces_sampled_total",
			"Traces recorded (after sampling)."),
		TraceSlow: reg.Counter("annoda_traces_slow_total",
			"Traces that exceeded the slow threshold."),
	}
	m.stageH = make(map[string]*Histogram, len(knownStages))
	for _, st := range knownStages {
		m.stageH[st] = m.StageDur.With(st)
	}
	return m
}

// stage returns the histogram for a span stage, falling back to the vec
// for stages outside the known set.
func (m *Metrics) stage(name string) *Histogram {
	if m == nil {
		return nil
	}
	if h, ok := m.stageH[name]; ok {
		return h
	}
	return m.StageDur.With(name)
}
