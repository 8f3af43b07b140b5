package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
	"repro/internal/obs"
)

// obsSystem builds a private System whose mediator shares an observability
// bundle with the mux, so /metrics carries the op and cache series next to
// the HTTP ones.
func obsSystem(t *testing.T) (*core.System, *obs.Obs) {
	t.Helper()
	o := obs.New(obs.Config{Logf: func(string, ...any) {}})
	cfg := datagen.Config{
		Seed: 779, Genes: 50, GoTerms: 30, Diseases: 20,
		ConflictRate: 0.2, MissingRate: 0.1,
	}
	sys, err := core.New(datagen.Generate(cfg), mediator.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return sys, o
}

// TestObsConcurrentScrape hammers queries, refreshes, /metrics scrapes, and
// /api/debug/traces reads concurrently (run under -race in CI), then checks
// the accounting invariant: the HTTP duration histogram's _count equals the
// number of requests served, and the op{query} histogram's _count equals
// the number of query calls — op histograms observe unconditionally,
// independent of trace sampling.
func TestObsConcurrentScrape(t *testing.T) {
	sys, _ := obsSystem(t)
	h := newMux(sys, muxConfig{})

	var total, queries atomic.Int64

	// Warm the snapshot so refreshes have an epoch to patch.
	warm := get(t, h, "/api/query?q="+url.QueryEscape(
		`select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`))
	if warm.Code != http.StatusOK {
		t.Fatalf("warm query = %d: %s", warm.Code, warm.Body.String())
	}
	total.Add(1)
	queries.Add(1)

	const iters = 8
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}
	// Query workers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := get(t, h, "/api/query?q="+url.QueryEscape(`select G from ANNODA-GML.Gene G`))
				total.Add(1)
				queries.Add(1)
				if rec.Code != http.StatusOK {
					fail("query = %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	// Refresh worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec := postJSON(t, h, "/api/refresh", `{"source":"GO"}`)
			total.Add(1)
			if rec.Code != http.StatusOK {
				fail("refresh = %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	// Metrics scraper: every scrape must parse as valid exposition even
	// mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec := get(t, h, "/metrics")
			total.Add(1)
			if rec.Code != http.StatusOK {
				fail("metrics = %d", rec.Code)
				return
			}
			if _, err := obs.ValidateExposition(rec.Body); err != nil {
				fail("scrape %d: %v", i, err)
				return
			}
		}
	}()
	// Trace reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec := get(t, h, "/api/debug/traces")
			total.Add(1)
			if rec.Code != http.StatusOK {
				fail("traces = %d", rec.Code)
				return
			}
			var resp tracesResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				fail("traces decode: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Final serial scrape: the scrape's own histogram observation lands
	// after its response body is written, so the body reflects exactly the
	// requests completed before it.
	rec := get(t, h, "/metrics")
	exp, err := obs.ValidateExposition(rec.Body)
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if got, want := exp.SumCount("annoda_http_request_duration_seconds_count"), float64(total.Load()); got != want {
		t.Errorf("http histogram count = %v, want %v (observed requests)", got, want)
	}
	if got, ok := exp.Value("annoda_op_duration_seconds_count", map[string]string{"op": "query"}); !ok || got != float64(queries.Load()) {
		t.Errorf("op{query} histogram count = %v (found=%v), want %v", got, ok, queries.Load())
	}
	if got, ok := exp.Value("annoda_op_duration_seconds_count", map[string]string{"op": "refresh"}); !ok || got != float64(iters) {
		t.Errorf("op{refresh} histogram count = %v (found=%v), want %v", got, ok, iters)
	}
}

// TestAskTraceRetrievable pins the acceptance contract: at default sampling
// every completed Ask shows up in /api/debug/traces, joinable by the
// X-Request-ID the response carried.
func TestAskTraceRetrievable(t *testing.T) {
	sys, _ := obsSystem(t)
	h := newMux(sys, muxConfig{})

	rec := postJSON(t, h, "/api/ask", `{"include":["GO"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("ask = %d: %s", rec.Code, rec.Body.String())
	}
	rid := rec.Header().Get("X-Request-ID")
	if rid == "" {
		t.Fatal("ask response missing X-Request-ID")
	}

	tr := get(t, h, "/api/debug/traces")
	if tr.Code != http.StatusOK {
		t.Fatalf("traces = %d", tr.Code)
	}
	var resp tracesResponse
	if err := json.Unmarshal(tr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("traces decode: %v", err)
	}
	var found *obs.TraceView
	for i := range resp.Recent {
		if resp.Recent[i].ID == rid {
			found = &resp.Recent[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("trace %s not in recent ring (%d traces)", rid, len(resp.Recent))
	}
	if found.Op != "http" {
		t.Errorf("trace op = %q, want http", found.Op)
	}
	stages := map[string]bool{}
	for _, sp := range found.Spans {
		stages[sp.Stage] = true
	}
	// {"include":["GO"]} names two of the three concepts: it is answered on
	// the pinned epoch under a mask, so the trace shows the pin, the
	// evaluation and the answer import inside it — no fetch, no fuse.
	for _, st := range []string{obs.StageEpochPin, obs.StageEval, obs.StageAnswerImport} {
		if !stages[st] {
			t.Errorf("ask trace has no %s span: %+v", st, found.Spans)
		}
	}
	if stages[obs.StageFetch] || stages[obs.StageFuse] {
		t.Errorf("ask trace of a pruned question ran the per-query pipeline: %+v", found.Spans)
	}
}

// exercised drives one query, one refresh and one checkpoint through the
// real mux of a persisted system, so every counter family has moved.
func exercised(t *testing.T) (*core.System, http.Handler) {
	t.Helper()
	sys := persistedSystem(t, t.TempDir())
	h := newMux(sys, muxConfig{})
	for _, rec := range []*httptest.ResponseRecorder{
		get(t, h, "/api/query?q="+url.QueryEscape(`select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`)),
		postJSON(t, h, "/api/refresh", `{"source":"GO"}`),
		postJSON(t, h, "/api/admin/checkpoint", ""),
	} {
		if rec.Code != http.StatusOK {
			t.Fatalf("exercise step = %d: %s", rec.Code, rec.Body.String())
		}
	}
	return sys, h
}

// TestStatszEqualsMetrics: /statsz and /metrics are two renderings of one
// Registry.Gather(), so every numeric sample in the /statsz JSON equals the
// same-named sample parsed from the text exposition, and /statsz omits
// nothing but histogram buckets.
func TestStatszEqualsMetrics(t *testing.T) {
	sys, _ := exercised(t)
	// Render both straight from the handlers: through the mux, each
	// request would move the HTTP series between the two reads.
	s := &server{sys: sys, o: sys.Manager.Obs(), start: obs.Now()}
	text, js := httptest.NewRecorder(), httptest.NewRecorder()
	s.o.Reg.Handler().ServeHTTP(text, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	s.statsz(js, httptest.NewRequest(http.MethodGet, "/statsz", nil))

	exp, err := obs.ValidateExposition(text.Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	var resp struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(js.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for key, got := range resp.Metrics {
		// A /statsz key is the sample's exposition identity: parse it the
		// way a scrape line is parsed.
		one, err := obs.ValidateExposition(strings.NewReader(key + " 0\n"))
		if err != nil {
			t.Errorf("/statsz key %q is not an exposition identity: %v", key, err)
			continue
		}
		want, ok := exp.Value(one.Samples[0].Name, one.Samples[0].Labels)
		if strings.HasPrefix(key, "annoda_go_") {
			// The one family that is a live reading, not an event count: each
			// gather reads the runtime once, and these are two gathers.
			want = got
		}
		if !ok || want != got {
			t.Errorf("%s: /statsz %v, /metrics %v (found=%v)", key, got, want, ok)
		}
	}
	nonBucket := 0
	for _, sm := range exp.Samples {
		if _, bucket := sm.Labels["le"]; !bucket {
			nonBucket++
		}
	}
	if nonBucket != len(resp.Metrics) {
		t.Errorf("/metrics has %d non-bucket samples, /statsz %d", nonBucket, len(resp.Metrics))
	}
	for _, name := range []string{"annoda_deltas_applied_total", "annoda_checkpoints_written_total", "annoda_cache_misses_total"} {
		if resp.Metrics[name] != 1 {
			t.Errorf("%s = %v after one query, refresh and checkpoint, want 1", name, resp.Metrics[name])
		}
	}
}

// TestPinnedSeries pins name, type and label schema of every series the
// benchmark harness (benchmark/metrics.go) scrapes: moving a counter's home
// must not move its exposition.
func TestPinnedSeries(t *testing.T) {
	_, h := exercised(t)
	// exercised's query takes the epoch route, which translates privately;
	// a pushdown query is what creates (and so exposes) the memo.
	if rec := get(t, h, "/api/query?q="+url.QueryEscape(`select G.Symbol from ANNODA-GML.Gene G where G.GeneID > 0`)); rec.Code != http.StatusOK {
		t.Fatalf("pushdown query = %d: %s", rec.Code, rec.Body.String())
	}
	// And a query that names only some concepts is what masks the others.
	if rec := get(t, h, "/api/query?q="+url.QueryEscape(`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation`)); rec.Code != http.StatusOK {
		t.Fatalf("pruned query = %d: %s", rec.Code, rec.Body.String())
	}
	exp, err := obs.ValidateExposition(get(t, h, "/metrics").Body)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	pinned := map[string]struct{ typ, label string }{
		"annoda_op_duration_seconds":           {"histogram", "op"},
		"annoda_stage_duration_seconds":        {"histogram", "stage"},
		"annoda_http_request_duration_seconds": {"histogram", "route"},
		"annoda_wal_append_duration_seconds":   {"histogram", ""},
		"annoda_feed_publish_duration_seconds": {"histogram", ""},
		"annoda_translate_total":               {"counter", "source,outcome"},
		"annoda_translated_objects":            {"gauge", "source"},
		"annoda_epoch_masked_total":            {"counter", "concept"},
		"annoda_go_goroutines":                 {"gauge", ""},
		"annoda_go_heap_live_bytes":            {"gauge", ""},
		"annoda_go_alloc_bytes_total":          {"counter", ""},
		"annoda_go_gc_pause_micros_total":      {"counter", ""},
	}
	for _, name := range []string{
		"annoda_cache_hits_total", "annoda_cache_misses_total", "annoda_cache_shared_total",
		"annoda_cache_evictions_total", "annoda_cache_invalidations_total",
		"annoda_snapshot_hits_total", "annoda_snapshot_misses_total",
		"annoda_plan_cache_hits_total", "annoda_plan_cache_misses_total", "annoda_plan_cache_shared_total",
		"annoda_deltas_applied_total", "annoda_full_rebuilds_total", "annoda_entities_patched_total",
		"annoda_checkpoints_written_total", "annoda_wal_append_bytes_total",
		"annoda_feed_events_delivered_total", "annoda_feed_events_dropped_total",
	} {
		pinned[name] = struct{ typ, label string }{"counter", ""}
	}
	seen := map[string]int{}
	stages := map[string]bool{}
	for _, sm := range exp.Samples {
		if sm.Name == "annoda_stage_duration_seconds_count" {
			stages[sm.Labels["stage"]] = true
		}
		fam := sm.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(sm.Name, suf); exp.Types[base] == "histogram" {
				fam = base
			}
		}
		pin, ok := pinned[fam]
		if !ok {
			continue
		}
		seen[fam]++
		want := map[string]bool{}
		for _, l := range strings.Split(pin.label, ",") {
			if l != "" {
				want[l] = true
			}
		}
		for k := range sm.Labels {
			if !want[k] && !(k == "le" && strings.HasSuffix(sm.Name, "_bucket")) {
				t.Errorf("%s carries label %q, pinned schema is {%s}", sm.Name, k, pin.label)
			}
		}
		for l := range want {
			if _, has := sm.Labels[l]; !has {
				t.Errorf("%s lost its %q label", sm.Name, l)
			}
		}
	}
	for fam, pin := range pinned {
		if exp.Types[fam] != pin.typ {
			t.Errorf("%s has TYPE %q, pinned %q", fam, exp.Types[fam], pin.typ)
		}
		if seen[fam] == 0 {
			t.Errorf("%s has no samples in the scrape", fam)
		}
	}
	// Where a cache hit's time goes after the mediator returns, where a
	// computed query's fetch time goes before fusion, and how much of an
	// evaluation is copying the answer out.
	for _, st := range []string{obs.StageRender, obs.StageWrite, obs.StageTranslate, obs.StageAnswerImport} {
		if !stages[st] {
			t.Errorf("annoda_stage_duration_seconds has no {stage=%q} series", st)
		}
	}
}

// TestRequestIDCorrelation pins the error-correlation contract through the
// real middleware chain: a panicking handler's 500 body and a timed-out
// handler's 503 body both carry the same request ID the response header
// advertised, and both failures are logged with that ID.
func TestRequestIDCorrelation(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	s := &server{
		o: obs.New(obs.Config{}),
		logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}

	t.Run("panic", func(t *testing.T) {
		h := s.instrument(s.recovering(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			panic("boom")
		})))
		rec := get(t, h, "/api/ask")
		rid := rec.Header().Get("X-Request-ID")
		if rec.Code != http.StatusInternalServerError || rid == "" {
			t.Fatalf("panicking handler = %d (rid %q), want 500 with a request ID", rec.Code, rid)
		}
		var body struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("500 body not JSON: %v (%s)", err, rec.Body.String())
		}
		if body.RequestID != rid {
			t.Errorf("500 body request_id = %q, header = %q", body.RequestID, rid)
		}
		logMu.Lock()
		defer logMu.Unlock()
		joined := strings.Join(logged, "\n")
		if !strings.Contains(joined, rid) {
			t.Errorf("panic log does not mention request ID %s:\n%s", rid, joined)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		})
		h := s.instrument(s.recovering(s.timed(slow, 20*time.Millisecond)))
		rec := get(t, h, "/api/query")
		rid := rec.Header().Get("X-Request-ID")
		if rec.Code != http.StatusServiceUnavailable || rid == "" {
			t.Fatalf("timed-out handler = %d (rid %q), want 503 with a request ID", rec.Code, rid)
		}
		var body struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("503 body not JSON: %v (%s)", err, rec.Body.String())
		}
		if body.RequestID != rid {
			t.Errorf("503 body request_id = %q, header = %q", body.RequestID, rid)
		}
	})
}
