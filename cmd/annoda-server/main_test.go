package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/snapstore"
	"repro/internal/sources/locuslink"
)

var (
	testSysOnce sync.Once
	testSysVal  *core.System
)

// testSystem builds one small System shared by every handler test (building
// it per-test would dominate the suite's runtime).
func testSystem(t *testing.T) *core.System {
	t.Helper()
	testSysOnce.Do(func() {
		cfg := datagen.Config{
			Seed: 777, Genes: 60, GoTerms: 40, Diseases: 30,
			ConflictRate: 0.2, MissingRate: 0.1,
		}
		sys, err := core.New(datagen.Generate(cfg), mediator.Options{Obs: quietObs()})
		if err != nil {
			panic(err)
		}
		if err := sys.PlugInProteins(); err != nil {
			panic(err)
		}
		testSysVal = sys
	})
	return testSysVal
}

// quietObs is the observability bundle the test systems are built with, as
// main builds the real one: the mediator's counters and the mux's HTTP
// series then share the registry /metrics and /statsz render.
func quietObs() *obs.Obs { return obs.New(obs.Config{Logf: func(string, ...any) {}}) }

// statszMetrics fetches /statsz and returns its "metrics" member: every
// non-bucket sample of the registry gather, keyed like its /metrics line.
func statszMetrics(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := get(t, h, "/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /statsz = %d", rec.Code)
	}
	var resp struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Metrics) == 0 {
		t.Fatalf("/statsz carries no metrics: %s", rec.Body)
	}
	return resp.Metrics
}

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func postJSON(t *testing.T, h http.Handler, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

func TestFormPage(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := get(t, h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET / = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Query interface (Figure 5a)", `name="t_GO"`, `name="t_OMIM"`, "Run biological question"} {
		if !strings.Contains(body, want) {
			t.Errorf("form page missing %q", want)
		}
	}
}

func TestUnknownPathIs404(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	if rec := get(t, h, "/no/such/page"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /no/such/page = %d, want 404", rec.Code)
	}
}

func TestAskHTML(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := get(t, h, "/ask?t_GO=include&t_OMIM=exclude")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /ask = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "Annotation integrated view (Figure 5b)") {
		t.Error("missing view heading")
	}
	if !strings.Contains(body, "exists G.Annotation") || !strings.Contains(body, "not exists G.Disease") {
		t.Error("compiled Lorel not echoed")
	}
	if !strings.Contains(body, "cache:") {
		t.Error("stats block missing cache counters")
	}
}

func TestAskHTMLBadCondition(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := get(t, h, "/ask?field=Organism&op=BOGUS&value=x")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad operator: got %d, want 400", rec.Code)
	}
}

// TestAskHTMLEscaping: user input reflected into the page must come back
// entity-escaped, never as live markup.
func TestAskHTMLEscaping(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	payload := `<script>alert(1)</script>`
	tests := []struct {
		name, target string
		wantCode     int
	}{
		{"ask condition value", "/ask?field=Organism&op==&value=" + url.QueryEscape(payload), http.StatusOK},
		{"object url", "/object?url=" + url.QueryEscape(payload), http.StatusNotFound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := get(t, h, tt.target)
			if rec.Code != tt.wantCode {
				t.Fatalf("got %d, want %d", rec.Code, tt.wantCode)
			}
			if strings.Contains(rec.Body.String(), payload) {
				t.Errorf("raw script tag reflected into response")
			}
		})
	}
}

func TestObjectHTML(t *testing.T) {
	sys := testSystem(t)
	h := newMux(sys, muxConfig{})
	u := locuslink.SelfURL(sys.Corpus.Genes[0].LocusID)
	rec := get(t, h, "/object?url="+url.QueryEscape(u))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /object = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "Individual object view (Figure 5c)") {
		t.Error("missing object view heading")
	}
	if rec := get(t, h, "/object?url=http://nowhere.example/x"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown object = %d, want 404", rec.Code)
	}
}

func TestAPIAskPost(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := postJSON(t, h, "/api/ask", `{"include":["GO"],"exclude":["OMIM"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/ask = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var resp askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("no rows in JSON view")
	}
	if !strings.Contains(resp.Question, "exists G.Annotation") {
		t.Errorf("question = %q", resp.Question)
	}
	if resp.Stats.Cache == nil {
		t.Error("cache stats absent from response")
	}
	// The identical question again must be a cache hit.
	rec2 := postJSON(t, h, "/api/ask", `{"include":["GO"],"exclude":["OMIM"]}`)
	var resp2 askResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Stats.Cache == nil || !resp2.Stats.Cache.Hit {
		t.Error("repeated question did not hit the result cache")
	}
	if len(resp2.Rows) != len(resp.Rows) {
		t.Errorf("cached answer has %d rows, first had %d", len(resp2.Rows), len(resp.Rows))
	}
}

func TestAPIAskGetFormParams(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := get(t, h, "/api/ask?t_GO=include&t_OMIM=exclude")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/ask = %d: %s", rec.Code, rec.Body.String())
	}
	var resp askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestAPIAsk4xx(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	tests := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want int
	}{
		{"malformed json", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/api/ask", `{"include":`)
		}, http.StatusBadRequest},
		{"unknown field", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/api/ask", `{"bogus":1}`)
		}, http.StatusBadRequest},
		{"bad combine", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/api/ask", `{"combine":"sometimes"}`)
		}, http.StatusBadRequest},
		{"unknown source", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/api/ask", `{"include":["NoSuchDB"]}`)
		}, http.StatusBadRequest},
		{"bad operator", func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/api/ask", `{"conditions":[{"field":"Organism","op":"~","value":"x"}]}`)
		}, http.StatusBadRequest},
		{"method not allowed", func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/api/ask", nil))
			return rec
		}, http.StatusMethodNotAllowed},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := tt.do()
			if rec.Code != tt.want {
				t.Fatalf("got %d, want %d: %s", rec.Code, tt.want, rec.Body.String())
			}
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Errorf("error body not JSON with error field: %s", rec.Body.String())
			}
		})
	}
}

func TestAPIQuery(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	q := `select G from ANNODA-GML.Gene G where exists G.Annotation`
	rec := get(t, h, "/api/query?q="+url.QueryEscape(q))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/query = %d: %s", rec.Code, rec.Body.String())
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Answers == 0 || resp.Text == "" {
		t.Fatalf("empty answer: %+v", resp)
	}
	// POST body form.
	rec2 := postJSON(t, h, "/api/query", fmt.Sprintf(`{"query":%q}`, q))
	if rec2.Code != http.StatusOK {
		t.Fatalf("POST /api/query = %d", rec2.Code)
	}
	var resp2 queryResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Answers != resp.Answers {
		t.Errorf("GET and POST disagree: %d vs %d", resp.Answers, resp2.Answers)
	}
	// 4xx paths.
	if rec := get(t, h, "/api/query"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/api/query?q=not+lorel"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage query = %d, want 400", rec.Code)
	}
}

func TestAPIExplain(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	q := `select G from ANNODA-GML.Gene G where exists G.Annotation`

	// Plan-only: structured report plus rendered text, no analyze block.
	rec := postJSON(t, h, "/api/explain", fmt.Sprintf(`{"query":%q}`, q))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/explain = %d: %s", rec.Code, rec.Body.String())
	}
	var resp explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	e := resp.Explain
	if e == nil || e.PlanTree == "" || len(e.Sources) == 0 {
		t.Fatalf("thin explain response: %s", rec.Body.String())
	}
	if e.Analyze != nil {
		t.Error("plan-only explain carried an analyze block")
	}
	if e.PathReason == "" {
		t.Error("path decision missing its reason")
	}
	if !strings.Contains(resp.Text, "sources:") {
		t.Errorf("rendered text missing sources block:\n%s", resp.Text)
	}

	// Analyze: actual cardinalities and stage timings appear.
	rec = postJSON(t, h, "/api/explain", fmt.Sprintf(`{"query":%q,"analyze":true}`, q))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/explain analyze = %d: %s", rec.Code, rec.Body.String())
	}
	resp = explainResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	a := resp.Explain.Analyze
	if a == nil {
		t.Fatalf("analyze block absent: %s", rec.Body.String())
	}
	if a.Cardinalities.RootsMatched == 0 || len(a.Stages) != 4 || len(a.Fetched) == 0 {
		t.Errorf("dead analyze block: %+v", a)
	}

	// 4xx paths, each carrying the request ID for joinability.
	for name, body := range map[string]string{
		"empty body":    `{}`,
		"bad lorel":     `{"query":"not lorel"}`,
		"unknown field": `{"query":"x","nope":1}`,
	} {
		rec := postJSON(t, h, "/api/explain", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", name, rec.Code)
			continue
		}
		var errBody struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
			t.Fatal(err)
		}
		if errBody.Error == "" || errBody.RequestID == "" {
			t.Errorf("%s error body lacks error/request_id: %s", name, rec.Body.String())
		}
	}
	if rec := get(t, h, "/api/explain"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/explain = %d, want 405", rec.Code)
	}
}

// TestStatszIntrospection: the plan-cache counters, explain counter and
// per-source statistics table all surface in /statsz.
func TestStatszIntrospection(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	// Snapshot-eligible (touches every mapped concept), so the shared-epoch
	// build runs and feeds entity counts and label cardinalities.
	q := `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease and exists G.Protein`
	get(t, h, "/api/query?q="+url.QueryEscape(q))
	postJSON(t, h, "/api/explain", fmt.Sprintf(`{"query":%q}`, q))
	rec := get(t, h, "/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /statsz = %d", rec.Code)
	}
	var resp struct {
		Metrics     map[string]float64 `json:"metrics"`
		SourceStats []struct {
			Source          string         `json:"source"`
			Entities        int            `json:"entities"`
			Labels          map[string]int `json:"labels"`
			FetchCount      int64          `json:"fetch_count"`
			FetchEWMAMicros int64          `json:"fetch_ewma_micros"`
		} `json:"source_stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metrics["annoda_plan_cache_entries"] == 0 {
		t.Errorf("plan cache entries missing or zero: %s", rec.Body.String())
	}
	if n := resp.Metrics["annoda_plan_explains_total"]; n < 1 {
		t.Errorf("annoda_plan_explains_total = %v, want >= 1", n)
	}
	if len(resp.SourceStats) == 0 {
		t.Fatalf("source_stats absent: %s", rec.Body.String())
	}
	for _, s := range resp.SourceStats {
		if s.Entities == 0 || s.FetchCount == 0 {
			t.Errorf("source %s stats look dead: %+v", s.Source, s)
		}
	}
}

func TestAPIObject(t *testing.T) {
	sys := testSystem(t)
	h := newMux(sys, muxConfig{})
	u := locuslink.SelfURL(sys.Corpus.Genes[0].LocusID)
	rec := get(t, h, "/api/object?url="+url.QueryEscape(u))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/object = %d: %s", rec.Code, rec.Body.String())
	}
	var resp objectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.URL != u || resp.Text == "" {
		t.Fatalf("bad object response: %+v", resp)
	}
	if rec := get(t, h, "/api/object?url=http://nowhere.example/x"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown url = %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/api/object"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing url = %d, want 400", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	var resp struct {
		Status  string   `json:"status"`
		Sources []string `json:"sources"`
		Genes   int      `json:"genes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Genes == 0 || len(resp.Sources) < 3 {
		t.Fatalf("unhealthy health: %+v", resp)
	}
}

// TestReadyz: a healthy system is "ready" with every source's breaker
// state in the body, under both lenient and strict modes.
func TestReadyz(t *testing.T) {
	for _, strict := range []bool{false, true} {
		h := newMux(testSystem(t), muxConfig{readyStrict: strict})
		rec := get(t, h, "/readyz")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /readyz (strict=%v) = %d", strict, rec.Code)
		}
		var resp struct {
			Status  string `json:"status"`
			Sources []struct {
				Source string `json:"source"`
				State  string `json:"state"`
			} `json:"sources"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != "ready" {
			t.Fatalf("healthy system not ready: %+v", resp)
		}
		if len(resp.Sources) < 3 {
			t.Fatalf("readyz lists %d sources, want every registered one", len(resp.Sources))
		}
		for _, src := range resp.Sources {
			if src.State != "healthy" {
				t.Errorf("source %s reported %q on a healthy system", src.Source, src.State)
			}
		}
	}
}

// TestStatszHealthBlock: /statsz carries the same per-source health view.
func TestStatszHealthBlock(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := get(t, h, "/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /statsz = %d", rec.Code)
	}
	var resp struct {
		Health *struct {
			Status  string            `json:"status"`
			Sources []json.RawMessage `json:"sources"`
		} `json:"health"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Health == nil || resp.Health.Status != "ready" || len(resp.Health.Sources) < 3 {
		t.Fatalf("statsz health block wrong: %+v", resp.Health)
	}
}

func TestStatszCountsRequestsAndCache(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	get(t, h, "/healthz")
	get(t, h, "/healthz")
	m := statszMetrics(t, h)
	if n := m[`annoda_http_responses_total{route="/healthz",class="2xx"}`]; n < 2 {
		t.Fatalf("request counter = %v after two /healthz requests", n)
	}
	if _, ok := m["annoda_cache_misses_total"]; !ok {
		t.Fatal("cache counters absent with cache enabled")
	}
}

// TestStatszSnapshotCounters: a snapshot-eligible API query must show up as
// a snapshot hit in /statsz and flag snapshot_used in its own stats.
func TestStatszSnapshotCounters(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	// The query must touch every mapped concept (the test system has ProtDB
	// plugged in) so nothing is pruned and the snapshot path is eligible.
	rec := get(t, h, "/api/query?q="+url.QueryEscape(
		`select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease and exists G.Protein`))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/query = %d: %s", rec.Code, rec.Body)
	}
	var qresp struct {
		Stats statsJSON `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if !qresp.Stats.SnapshotUsed {
		t.Error("snapshot_used not set on an eligible query's stats")
	}
	if n := statszMetrics(t, h)["annoda_snapshot_hits_total"]; n < 1 {
		t.Fatalf("annoda_snapshot_hits_total = %v in /statsz, want >= 1", n)
	}
}

// TestRouteLabelsBounded: a scan over arbitrary URLs must not grow the
// per-route series — attacker-chosen paths aggregate as "(other)".
func TestRouteLabelsBounded(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	const scans = 80
	for i := 0; i < scans; i++ {
		get(t, h, fmt.Sprintf("/scan/%d", i))
	}
	m := statszMetrics(t, h)
	for key := range m {
		if strings.Contains(key, "/scan/") {
			t.Fatalf("scanned path became a label: %s", key)
		}
	}
	if n := m[`annoda_http_responses_total{route="(other)",class="4xx"}`]; n < scans {
		t.Fatalf("(other) 4xx = %v, want >= %d", n, scans)
	}
}

// gathered reads one sample of reg by its exposition key, through the
// Gather snapshot /metrics renders; 0 when absent.
func gathered(reg *obs.Registry, key string) float64 {
	for _, f := range reg.Gather() {
		for _, p := range f.Points {
			if p.Key == key {
				return p.Value
			}
		}
	}
	return 0
}

// TestEveryRouteHasALabel: every path newMux registers is in knownRoutes
// (registration panics otherwise), so its series carry its own label —
// /api/explain and /readyz used to aggregate under "(other)" — and load-
// balancer probes stay out of the trace ring.
func TestEveryRouteHasALabel(t *testing.T) {
	sys := freshSystem(t)
	h := newMux(sys, muxConfig{})
	reg := sys.Manager.Obs().Reg
	for path := range knownRoutes {
		rec := httptest.NewRecorder()
		// DELETE is refused (or harmlessly served) everywhere, and never
		// opens the /api/watch stream.
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, path, nil))
		if n := gathered(reg, `annoda_http_request_duration_seconds_count{route="`+path+`"}`); n != 1 {
			t.Errorf("route %s: %v requests under its own label, want 1", path, n)
		}
	}
	if n := gathered(reg, `annoda_http_request_duration_seconds_count{route="(other)"}`); n != 0 {
		t.Errorf("%v registered-route requests aggregated under (other)", n)
	}
	get(t, h, "/readyz")
	for _, tv := range sys.Manager.Obs().Tracer.Recent() {
		if strings.Contains(tv.Detail, "/readyz") {
			t.Errorf("readiness probe recorded a trace: %+v", tv)
		}
	}
}

// TestRequestTimeout: a request that outlives the per-request budget gets a
// 503 from http.TimeoutHandler rather than hanging the client.
func TestRequestTimeout(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	srv := &server{logf: func(string, ...any) {}}
	h := srv.recovering(http.TimeoutHandler(slow, 20*time.Millisecond, "request timed out"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d, want 503", rec.Code)
	}
}

// TestRecoveryMiddleware: a panicking handler becomes a 500.
func TestRecoveryMiddleware(t *testing.T) {
	srv := &server{logf: func(string, ...any) {}}
	h := srv.recovering(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
}

// TestConcurrentAPIRequests drives the full middleware stack from many
// goroutines — the server-side companion to the core -race test.
func TestConcurrentAPIRequests(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var rec *httptest.ResponseRecorder
				switch i % 3 {
				case 0:
					rec = postJSON(t, h, "/api/ask", `{"include":["GO"]}`)
				case 1:
					rec = get(t, h, "/api/query?q="+url.QueryEscape(`select G from ANNODA-GML.Gene G`))
				case 2:
					rec = get(t, h, "/statsz")
				}
				if rec.Code != http.StatusOK {
					body, _ := io.ReadAll(rec.Result().Body)
					t.Errorf("goroutine %d iter %d: %d %s", g, i, rec.Code, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSourceDownIs503: a query refused by a source's open breaker is the
// service's condition, not a bad request — 503 with Retry-After from the
// breaker's backoff — on every query route; a plain bad request stays 400.
func TestSourceDownIs503(t *testing.T) {
	cfg := datagen.Config{Seed: 780, Genes: 30, GoTerms: 20, Diseases: 10}
	sys, err := core.New(datagen.Generate(cfg), mediator.Options{ // strict: MinSources 0
		Health: health.Config{FailureThreshold: 1, BaseBackoff: 90 * time.Second, MaxBackoff: 90 * time.Second, JitterFraction: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Swap GO for a copy that always fails; one failure opens its breaker.
	dead := faults.New(sys.Registry.Get("GO"), faults.Config{ErrorRate: 1})
	sys.Registry.Remove("GO")
	if err := sys.Registry.Add(dead); err != nil {
		t.Fatal(err)
	}
	h := newMux(sys, muxConfig{})
	q := `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`
	// The fetch that observes the failure itself is not a breaker refusal.
	if rec := get(t, h, "/api/query?q="+url.QueryEscape(q)); rec.Code != http.StatusBadRequest {
		t.Fatalf("first failing query = %d, want 400 (source error, breaker not yet open)", rec.Code)
	}
	for name, do := range map[string]func() *httptest.ResponseRecorder{
		"query": func() *httptest.ResponseRecorder { return get(t, h, "/api/query?q="+url.QueryEscape(q)) },
		"ask":   func() *httptest.ResponseRecorder { return postJSON(t, h, "/api/ask", `{"include":["GO"]}`) },
		"explain": func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/api/explain", fmt.Sprintf(`{"query":%q,"analyze":true}`, q))
		},
		"batch": func() *httptest.ResponseRecorder {
			return postJSON(t, h, "/api/batch", fmt.Sprintf(`{"queries":[%q]}`, q))
		},
	} {
		rec := do()
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with GO's breaker open = %d, want 503: %s", name, rec.Code, rec.Body.String())
			continue
		}
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || secs < 1 || secs > 90 {
			t.Errorf("%s: Retry-After = %q, want 1..90 seconds", name, rec.Header().Get("Retry-After"))
		}
	}
	if rec := get(t, h, "/api/query?q=not+lorel"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage query = %d, want 400", rec.Code)
	}
}

// freshSystem builds a private System (the refresh tests mutate manager
// state, so they must not share the memoized one).
func freshSystem(t *testing.T) *core.System {
	t.Helper()
	return freshSystemWith(t, mediator.Options{Obs: quietObs()})
}

// freshSystemWith is freshSystem under the given mediator options.
func freshSystemWith(t *testing.T, opts mediator.Options) *core.System {
	t.Helper()
	cfg := datagen.Config{
		Seed: 778, Genes: 50, GoTerms: 30, Diseases: 20,
		ConflictRate: 0.2, MissingRate: 0.1,
	}
	sys, err := core.New(datagen.Generate(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAPIRefresh(t *testing.T) {
	h := newMux(freshSystem(t), muxConfig{})

	// Warm the snapshot so the refresh has something to patch.
	if rec := get(t, h, "/api/query?q="+url.QueryEscape(
		`select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`)); rec.Code != http.StatusOK {
		t.Fatalf("warm query = %d: %s", rec.Code, rec.Body.String())
	}
	rec := postJSON(t, h, "/api/refresh", `{"source":"GO"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/refresh = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Source     string `json:"source"`
		OldVersion uint64 `json:"old_version"`
		NewVersion uint64 `json:"new_version"`
		Patched    bool   `json:"patched"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "GO" || resp.NewVersion != resp.OldVersion+1 {
		t.Errorf("refresh response = %+v", resp)
	}
	if !resp.Patched {
		t.Error("unchanged-source refresh did not patch the live snapshot")
	}
	if n := statszMetrics(t, h)["annoda_deltas_applied_total"]; n != 1 {
		t.Errorf("annoda_deltas_applied_total = %v, want 1", n)
	}

	// Unknown sources 404 (the warehouse baseline is no longer a pseudo-
	// source of the server); missing body 400; GET 405.
	for _, src := range []string{"Nope", "warehouse"} {
		if rec := postJSON(t, h, "/api/refresh", fmt.Sprintf(`{"source":%q}`, src)); rec.Code != http.StatusNotFound {
			t.Errorf("source %q = %d, want 404", src, rec.Code)
		}
	}
	if rec := postJSON(t, h, "/api/refresh", `{}`); rec.Code != http.StatusBadRequest {
		t.Errorf("missing source = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/api/refresh"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/refresh = %d, want 405", rec.Code)
	}
}

func TestAPIMethodNotAllowed(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	cases := []struct{ method, target string }{
		{http.MethodDelete, "/api/ask"},
		{http.MethodPut, "/api/query"},
		{http.MethodPost, "/api/object"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/statsz"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", c.method, c.target, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow == "" {
			t.Errorf("%s %s: missing Allow header", c.method, c.target)
		}
	}
}

func TestAPIBodyLimit(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	big := `{"query":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`
	rec := postJSON(t, h, "/api/query", big)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized body = %d, want 400", rec.Code)
	}
}

func TestAPIBatch(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	// The test system includes ProtDB. The first question names every
	// concept; the third leaves Protein out, which the pinned epoch answers
	// under a mask instead of handing the question to the per-query pipeline.
	safeQ := "select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease and not exists G.Protein"
	body := `{"queries": [
		"` + safeQ + `",
		"select totally bogus",
		"select G.Symbol from ANNODA-GML.Gene G, G.Annotation A where exists G.Annotation and not exists G.Disease"
	]}`
	rec := postJSON(t, h, "/api/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/batch = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Questions int `json:"questions"`
		Failed    int `json:"failed"`
		Answers   []struct {
			Query        string `json:"query"`
			Answers      int    `json:"answers"`
			Error        string `json:"error"`
			SnapshotUsed bool   `json:"snapshot_used"`
		} `json:"answers"`
		Stats struct {
			BatchQuestions int `json:"batch_questions"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Questions != 3 || len(resp.Answers) != 3 {
		t.Fatalf("questions = %d, answers = %d, want 3/3", resp.Questions, len(resp.Answers))
	}
	if resp.Failed != 1 || resp.Answers[1].Error == "" {
		t.Errorf("malformed query not isolated: failed=%d err=%q", resp.Failed, resp.Answers[1].Error)
	}
	if resp.Answers[0].Answers == 0 || resp.Answers[2].Answers == 0 {
		t.Error("well-formed batch questions returned no answers")
	}
	if !resp.Answers[0].SnapshotUsed || !resp.Answers[2].SnapshotUsed {
		t.Error("snapshot-safe batch questions missed the pinned-epoch path")
	}
	if resp.Stats.BatchQuestions != 3 {
		t.Errorf("stats.batch_questions = %d, want 3", resp.Stats.BatchQuestions)
	}

	// Validation and method gating.
	if rec := postJSON(t, h, "/api/batch", `{"queries": []}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", rec.Code)
	}
	var many []string
	for i := 0; i <= maxBatchQueries; i++ {
		many = append(many, fmt.Sprintf("select G from ANNODA-GML.Gene G -- %d", i))
	}
	over, _ := json.Marshal(map[string][]string{"queries": many})
	if rec := postJSON(t, h, "/api/batch", string(over)); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/api/batch"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/batch = %d, want 405", rec.Code)
	}
}

func TestStatszEpochCounters(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	// At least one snapshot query so an epoch exists.
	postJSON(t, h, "/api/batch",
		`{"queries": ["select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease"]}`)
	m := statszMetrics(t, h)
	if m["annoda_epochs_published_total"] == 0 || m["annoda_epoch_pins_total"] == 0 {
		t.Errorf("epoch counters not surfaced: published=%v pins=%v",
			m["annoda_epochs_published_total"], m["annoda_epoch_pins_total"])
	}
}

// persistedSystem builds a fresh System with the durable snapshot store
// attached — the handler-level equivalent of starting with -data-dir.
func persistedSystem(t *testing.T, dir string) *core.System {
	t.Helper()
	sys := freshSystem(t)
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAPICheckpointWithoutPersistence(t *testing.T) {
	h := newMux(testSystem(t), muxConfig{})
	rec := postJSON(t, h, "/api/admin/checkpoint", "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("checkpoint without -data-dir = %d, want 409", rec.Code)
	}
}

func TestAPICheckpointAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	sys := persistedSystem(t, dir)
	h := newMux(sys, muxConfig{})

	// An answer computed cold, and a checkpoint of the world behind it.
	cold := get(t, h, "/api/query?q="+url.QueryEscape(
		`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`))
	if cold.Code != http.StatusOK {
		t.Fatalf("cold query = %d: %s", cold.Code, cold.Body)
	}
	rec := postJSON(t, h, "/api/admin/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /api/admin/checkpoint = %d: %s", rec.Code, rec.Body)
	}
	var ck struct {
		Seq   uint64 `json:"seq"`
		Bytes int    `json:"bytes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Seq != 1 || ck.Bytes == 0 {
		t.Fatalf("checkpoint response %+v", ck)
	}
	if m := statszMetrics(t, h); m["annoda_checkpoints_written_total"] != 1 || m["annoda_checkpoint_bytes_total"] != float64(ck.Bytes) {
		t.Fatalf("registry counts %v checkpoints / %v bytes, want 1 / %d",
			m["annoda_checkpoints_written_total"], m["annoda_checkpoint_bytes_total"], ck.Bytes)
	}
	if rec := get(t, h, "/api/admin/checkpoint"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/admin/checkpoint = %d, want 405", rec.Code)
	}

	// "Restart": a fresh System over the same corpus shape restores from
	// the store and answers identically through the API.
	sys2 := persistedSystem(t, dir)
	rr, err := sys2.Manager.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Restored {
		t.Fatalf("boot restore fell back: %+v", rr)
	}
	h2 := newMux(sys2, muxConfig{})
	warm := get(t, h2, "/api/query?q="+url.QueryEscape(
		`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`))
	if warm.Code != http.StatusOK {
		t.Fatalf("warm query = %d: %s", warm.Code, warm.Body)
	}
	var coldResp, warmResp struct {
		Answers int    `json:"answers"`
		Text    string `json:"text"`
		Stats   struct {
			SnapshotUsed bool `json:"snapshot_used"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(cold.Body.Bytes(), &coldResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warm.Body.Bytes(), &warmResp); err != nil {
		t.Fatal(err)
	}
	if warmResp.Answers != coldResp.Answers || warmResp.Text != coldResp.Text {
		t.Errorf("warm-restart answer diverges from cold answer (%d vs %d answers)",
			warmResp.Answers, coldResp.Answers)
	}
	if !warmResp.Stats.SnapshotUsed {
		t.Error("warm query did not take the snapshot path")
	}

	// The persistence counters surface in /statsz.
	if n := statszMetrics(t, h2)["annoda_restores_total"]; n != 1 {
		t.Errorf("annoda_restores_total = %v, want 1", n)
	}
}
