package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	// Exact boundary: 1024ns must land in the le=1024ns bucket.
	h.Observe(1024 * time.Nanosecond)
	if got := h.buckets[0].Load(); got != 1 {
		t.Errorf("1024ns in bucket 0: got %d", got)
	}
	h.Observe(1025 * time.Nanosecond)
	if got := h.buckets[1].Load(); got != 1 {
		t.Errorf("1025ns in bucket 1: got %d", got)
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamps to zero
	if got := h.buckets[0].Load(); got != 3 {
		t.Errorf("zero/negative observations in bucket 0: got %d", got)
	}
	h.Observe(time.Hour) // far past the last finite bound
	if got := h.buckets[histBuckets].Load(); got != 1 {
		t.Errorf("1h in +Inf bucket: got %d", got)
	}
	if got := observations(h); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	wantSum := 1024 + 1025 + int64(time.Hour)
	if got := int64(h.sum.Load()); got != wantSum {
		t.Errorf("Sum = %d, want %d", got, wantSum)
	}
}

// observations is h's observation count: its buckets' total.
func observations(h *Histogram) uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

func TestNilReceiversAreInert(t *testing.T) {
	var o *Obs
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(-1)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil metrics accumulated values")
	}
	trace := o.Start("op", "detail")
	if trace != nil {
		t.Fatal("nil Obs returned a live trace")
	}
	// The whole trace API must be a no-op on the nil trace.
	trace.Span(StageEval, time.Time{})
	trace.SpanNote(StageFetch, time.Time{}, "x")
	trace.SetErr(fmt.Errorf("boom"))
	trace.Annotate("q")
	trace.Finish()
	if got := tr.Recent(); got != nil {
		t.Errorf("nil tracer Recent = %v", got)
	}
}

func TestTracerRingAndSlow(t *testing.T) {
	var logged []string
	o := New(Config{
		RingSize:      4,
		SlowRingSize:  2,
		SlowThreshold: time.Nanosecond, // everything is slow
		Logf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	for i := 0; i < 6; i++ {
		tr := o.Start("query", fmt.Sprintf("q%d", i))
		if tr == nil {
			t.Fatal("default sampling dropped a trace")
		}
		tr.Span(StageEval, time.Now())
		tr.Finish()
		tr.Finish() // idempotent
	}
	recent := o.Tracer.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent ring holds %d traces, want 4 (capacity)", len(recent))
	}
	// Newest first: q5 then q4.
	if recent[0].Detail != "q5" || recent[1].Detail != "q4" {
		t.Errorf("ring order wrong: %q, %q", recent[0].Detail, recent[1].Detail)
	}
	if len(recent[0].Spans) != 1 || recent[0].Spans[0].Stage != StageEval {
		t.Errorf("spans not retained: %+v", recent[0].Spans)
	}
	slow := o.Tracer.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow ring holds %d, want 2", len(slow))
	}
	if len(logged) != 6 {
		t.Errorf("slow log called %d times, want 6", len(logged))
	}
	if got := o.M.TraceSampled.Value(); got != 6 {
		t.Errorf("TraceSampled = %d, want 6", got)
	}
	if got := o.M.TraceSlow.Value(); got != 6 {
		t.Errorf("TraceSlow = %d, want 6", got)
	}
	// Stage histogram fed from spans at Finish.
	if got := observations(o.M.stage(StageEval)); got != 6 {
		t.Errorf("stage histogram count = %d, want 6", got)
	}
}

func TestTracerSampling(t *testing.T) {
	o := New(Config{SampleEvery: 3})
	var live int
	for i := 0; i < 9; i++ {
		if tr := o.Start("query", ""); tr != nil {
			live++
			tr.Finish()
		}
	}
	if live != 3 {
		t.Errorf("1-in-3 sampling kept %d of 9", live)
	}
}

func TestTraceErrAndAnnotate(t *testing.T) {
	o := New(Config{})
	tr := o.Start("refresh", "GO")
	tr.Annotate("delta")
	tr.SetErr(fmt.Errorf("wrapper down"))
	tr.Finish()
	v := o.Tracer.Recent()[0]
	if v.Detail != "GO | delta" {
		t.Errorf("detail = %q", v.Detail)
	}
	if v.Err != "wrapper down" {
		t.Errorf("err = %q", v.Err)
	}
	if v.ID == "" {
		t.Error("trace has no ID")
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %s", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("request ID %q missing prefix separator", id)
		}
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	o := New(Config{})
	o.M.OpDur.With("query").Observe(3 * time.Millisecond)
	o.M.OpDur.With("query").Observe(50 * time.Microsecond)
	o.M.OpDur.With("refresh").Observe(time.Second)
	o.M.OpErr.With("query").Inc()
	o.M.HTTPInFlight.Set(2)
	gathered := false
	perSource := o.Reg.GaugeVec("test_source_state", "Label set known only at scrape time.", "source")
	o.Reg.OnGather(func() {
		gathered = true
		perSource.With("GO").Set(2)
	})
	owned := int64(777)
	o.Reg.CounterFunc("test_owned_total", "A count another package owns.", func() int64 { return owned })
	o.Reg.CounterVec("test_owned_by_source_total", "Labelled function-backed counter.", "source").
		Func(func() int64 { return owned + 1 }, "GO")

	var buf bytes.Buffer
	if err := o.Reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	if !gathered {
		t.Error("OnGather collector not invoked")
	}
	exp, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own exposition invalid: %v\n%s", err, buf.String())
	}
	var ops float64
	for _, s := range exp.Samples {
		if s.Name == "annoda_op_duration_seconds_count" {
			ops += s.Value
		}
	}
	if ops != 3 {
		t.Errorf("op count = %v, want 3", ops)
	}
	if v, ok := exp.Value("annoda_op_duration_seconds_count", map[string]string{"op": "query"}); !ok || v != 2 {
		t.Errorf("query op count = %v (found=%v), want 2", v, ok)
	}
	if v, ok := exp.Value("test_owned_total", nil); !ok || v != 777 {
		t.Errorf("function-backed counter = %v (found=%v), want 777", v, ok)
	}
	if v, ok := exp.Value("test_owned_by_source_total", map[string]string{"source": "GO"}); !ok || v != 778 {
		t.Errorf("labelled function-backed counter = %v (found=%v), want 778", v, ok)
	}
	if v, ok := exp.Value("test_source_state", map[string]string{"source": "GO"}); !ok || v != 2 {
		t.Errorf("OnGather gauge = %v (found=%v), want 2", v, ok)
	}
	if v, ok := exp.Value("annoda_op_errors_total", map[string]string{"op": "query"}); !ok || v != 1 {
		t.Errorf("op errors{query} = %v (found=%v), want 1", v, ok)
	}
	if _, ok := exp.Value("no_such_family", nil); ok {
		t.Error("absent family found")
	}
	if exp.Types["annoda_op_duration_seconds"] != "histogram" {
		t.Errorf("TYPE lost: %q", exp.Types["annoda_op_duration_seconds"])
	}
	// Label escaping survives a round trip.
	o.M.HTTPDur.With(`we"ird\ro` + "\n" + `ute`).Observe(time.Millisecond)
	buf.Reset()
	if err := o.Reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	exp2, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped exposition invalid: %v", err)
	}
	if _, ok := exp2.Value("annoda_http_request_duration_seconds_count",
		map[string]string{"route": `we"ird\ro` + "\n" + `ute`}); !ok {
		t.Error("escaped label did not round-trip")
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"no trailing newline", "a 1"},
		{"bad name", "9bad 1\n"},
		{"missing value", "a{x=\"1\"}\n"},
		{"bad value", "a nope\n"},
		{"unterminated label", "a{x=\"1 1\n"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a gauge\na 1\n"},
		{"TYPE after samples", "a 1\n# TYPE a counter\n"},
		{"unknown TYPE", "# TYPE a widget\na 1\n"},
		{"negative counter", "# TYPE a counter\na -1\n"},
		{"interleaved families", "# TYPE a counter\n# TYPE b counter\na 1\nb 1\na 2\n"},
		{"histogram no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram inf != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n"},
		{"histogram non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"bad escape", "a{x=\"\\q\"} 1\n"},
	}
	for _, tc := range cases {
		if _, err := ValidateExposition(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted malformed exposition", tc.name)
		}
	}
	// And a well-formed one with timestamps and comments is accepted.
	good := "# scraped from somewhere\n# TYPE a counter\n# HELP a does things\na{x=\"1\"} 5 1700000000000\n\n# TYPE g gauge\ng -3.5e-2\n"
	if _, err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Errorf("rejected well-formed exposition: %v", err)
	}
}

// TestTraceConcurrentSpans exercises the span mutex and lock-free rings
// under the race detector: workers append spans to a shared trace while
// other finished traces stream through the ring and readers snapshot it.
func TestTraceConcurrentSpans(t *testing.T) {
	o := New(Config{RingSize: 8})
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	// Ring readers.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range o.Tracer.Recent() {
					_ = v.Spans
				}
				var buf bytes.Buffer
				if err := o.Reg.Expose(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Writers: each builds traces with concurrent span appends.
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for n := 0; n < 200; n++ {
				tr := o.Start("batch", "load")
				var inner sync.WaitGroup
				for w := 0; w < 3; w++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						tr.Span(StageEval, time.Now())
					}()
				}
				inner.Wait()
				tr.Finish()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := o.M.TraceSampled.Value(); got != 800 {
		t.Errorf("sampled = %d, want 800", got)
	}
}
