package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/jsonstr"
	"repro/internal/lorel"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/oem"
)

// maxBodyBytes bounds every /api/* request body: annotation questions are
// small, and an unbounded body is a trivial memory DoS.
const maxBodyBytes = 1 << 20

// defaultRequestTimeout bounds one request's handler time; a mediated query
// over the demo corpus is milliseconds, so anything past this is a bug.
const defaultRequestTimeout = 30 * time.Second

// muxConfig bundles the handler-tree knobs main wires from flags.
type muxConfig struct {
	timeout   time.Duration // per-request deadline (<= 0: defaultRequestTimeout)
	heartbeat time.Duration // /api/watch SSE keep-alive (<= 0: defaultWatchHeartbeat)
	// readyStrict makes /readyz answer 503 for a degraded (but still
	// answering) mediator, for fleets that prefer ejecting a degraded
	// replica over serving partial annotation worlds.
	readyStrict bool
}

// newMux builds the complete, middleware-wrapped handler tree for a running
// System. It is the testable seam: handler tests drive it through
// net/http/httptest without opening a socket.
//
// The timeout wrap is route-aware: http.TimeoutHandler's buffered
// ResponseWriter deliberately drops http.Flusher, so wrapping a streaming
// route in it would stall every SSE event until the deadline killed the
// connection. /api/watch therefore hangs off the outer mux, unwrapped —
// its lifetime is bounded by the client disconnecting (request context)
// and its liveness by the heartbeat ticker — while every request/response
// route keeps the hard per-request deadline.
func newMux(sys *core.System, cfg muxConfig) http.Handler {
	timeout, heartbeat := cfg.timeout, cfg.heartbeat
	if timeout <= 0 {
		timeout = defaultRequestTimeout
	}
	if heartbeat <= 0 {
		heartbeat = defaultWatchHeartbeat
	}
	// Share the mediator's observability bundle so /metrics and /statsz
	// render the registry the mediator's counters live in; a system built
	// without one still gets HTTP metrics and traces from a private bundle.
	o := sys.Manager.Obs()
	if o == nil {
		o = obs.New(obs.Config{Logf: log.Printf})
	}
	s := &server{sys: sys, o: o, start: obs.Now(), heartbeat: heartbeat, readyStrict: cfg.readyStrict, logf: log.Printf}

	// Every route must carry a metrics label: an unlabelled one would have
	// its latency and status series silently aggregated under "(other)".
	handle := func(mux *http.ServeMux, path string, h http.HandlerFunc) {
		if !knownRoutes[path] {
			panic("annoda-server: route " + path + " is missing from knownRoutes")
		}
		mux.Handle(path, h)
	}
	mux := http.NewServeMux()
	// HTML views (Figures 5a/5b/5c).
	handle(mux, "/", s.form)
	handle(mux, "/ask", s.ask)
	handle(mux, "/object", s.object)
	// JSON API.
	handle(mux, "/api/ask", s.apiAsk)
	handle(mux, "/api/query", s.apiQuery)
	handle(mux, "/api/explain", s.apiExplain)
	handle(mux, "/api/batch", s.apiBatch)
	handle(mux, "/api/object", s.apiObject)
	handle(mux, "/api/refresh", s.apiRefresh)
	handle(mux, "/api/admin/checkpoint", s.apiCheckpoint)
	// Operational endpoints.
	handle(mux, "/healthz", s.healthz)
	handle(mux, "/readyz", s.readyz)
	handle(mux, "/statsz", s.statsz)
	handle(mux, "/api/debug/traces", s.apiDebugTraces)
	handle(mux, "/metrics", o.Reg.Handler().ServeHTTP)

	outer := http.NewServeMux()
	handle(outer, "/api/watch", s.apiWatch)
	outer.Handle("/", s.timed(mux, timeout))

	return s.instrument(s.recovering(outer))
}

// recovering converts a handler panic into a 500 instead of killing the
// connection (and, under http.Serve, leaking a broken keep-alive). The log
// line and the response body both carry the request ID so the two can be
// joined from either side.
func (s *server) recovering(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				rid := requestIDFrom(r.Context())
				s.logf("panic serving %s (request %s): %v\n%s", r.URL.Path, rid, rec, debug.Stack())
				jsonError(w, r, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

type server struct {
	sys       *core.System
	o         *obs.Obs
	start     time.Time
	heartbeat time.Duration // /api/watch SSE keep-alive interval
	// readyStrict: /readyz answers 503 for a degraded mediator instead of
	// 200 + "degraded".
	readyStrict bool
	logf        func(format string, args ...any)
}

// allowMethods gates a handler on its supported HTTP methods, answering
// everything else with 405 + an Allow header instead of the implicit
// fall-through behaviour handlers used to have.
func allowMethods(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	jsonError(w, r, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	return false
}

// ---------------------------------------------------------------------------
// JSON API
// ---------------------------------------------------------------------------

type conditionJSON struct {
	Field string `json:"field"`
	Op    string `json:"op"`
	Value string `json:"value"`
}

type askRequest struct {
	Include    []string        `json:"include"`
	Exclude    []string        `json:"exclude"`
	Combine    string          `json:"combine"` // "all" (default) or "any"
	Conditions []conditionJSON `json:"conditions"`
}

type rowJSON struct {
	GeneID   int64    `json:"gene_id"`
	Symbol   string   `json:"symbol"`
	Organism string   `json:"organism,omitempty"`
	Position string   `json:"position,omitempty"`
	GoIDs    []string `json:"go_ids,omitempty"`
	MimIDs   []int64  `json:"mim_ids,omitempty"`
	Proteins []string `json:"proteins,omitempty"`
	WebLinks []string `json:"web_links,omitempty"`
}

// cacheJSON is the per-request cache outcome; the cumulative cache counters
// are process-wide and live in /metrics and /statsz.
type cacheJSON struct {
	Hit bool `json:"hit"`
}

type statsJSON struct {
	SourcesQueried []string   `json:"sources_queried"`
	SourcesPruned  []string   `json:"sources_pruned,omitempty"`
	Conflicts      int        `json:"conflicts"`
	Pushdown       bool       `json:"pushdown"`
	PushdownFB     int        `json:"pushdown_fallbacks,omitempty"`
	Parallel       bool       `json:"parallel"`
	SnapshotUsed   bool       `json:"snapshot_used,omitempty"`
	Masked         []string   `json:"masked,omitempty"` // concepts hidden on the snapshot path; the rest of the block then describes the whole epoch
	BatchQuestions int        `json:"batch_questions,omitempty"`
	FetchMicros    int64      `json:"fetch_micros"`
	FuseMicros     int64      `json:"fuse_micros"`
	EvalMicros     int64      `json:"eval_micros"`
	Cache          *cacheJSON `json:"cache,omitempty"`
}

// writeBody is the one place a JSON response is written. The body arrives
// already encoded, in one or more parts written in order, so every failure
// that can still change the status has happened before the header goes
// out, and the response carries its Content-Length.
func writeBody(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // the client went away or the deadline passed: nobody is left to tell
		}
	}
}

// writeJSON encodes v, then writes it: a value that will not encode is a 500
// naming the request, not a truncated 200.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		encodeFailed(w, r, err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

func encodeFailed(w http.ResponseWriter, r *http.Request, err error) {
	log.Printf("encode response (request %s): %v", requestIDFrom(r.Context()), err)
	jsonError(w, r, http.StatusInternalServerError, "encode response: %v", err)
}

func jsonError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if rid := requestIDFrom(r.Context()); rid != "" {
		body["request_id"] = rid
	}
	writeJSON(w, r, status, body)
}

// decodeBody is the one request-body decoder: at most maxBodyBytes, no
// unknown fields, exactly one JSON value. It answers 400 itself and reports
// whether the handler may go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		jsonError(w, r, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// writeQueryError answers a failed mediator call. A source refused by its
// open breaker (anywhere in the error tree — fetch joins and wraps them) is
// the service's condition, not the client's mistake: 503 with Retry-After
// set from the breaker's remaining backoff. Everything else is a bad
// request.
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	var down *health.DownError
	if errors.As(err, &down) {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(down.RetryIn.Seconds()))))
	}
	jsonError(w, r, status, "%v", err)
}

// mediatorStats converts mediator stats to the wire shape.
func mediatorStats(st *mediator.Stats) statsJSON {
	out := statsJSON{
		SourcesQueried: st.SourcesQueried,
		SourcesPruned:  st.SourcesPruned,
		Conflicts:      len(st.Conflicts),
		Pushdown:       st.PushdownUsed,
		PushdownFB:     st.PushdownFallbacks,
		Parallel:       st.Parallel,
		SnapshotUsed:   st.SnapshotUsed,
		Masked:         st.Masked,
		BatchQuestions: st.BatchQuestions,
		FetchMicros:    st.FetchTime.Microseconds(),
		FuseMicros:     st.FuseTime.Microseconds(),
		EvalMicros:     st.EvalTime.Microseconds(),
	}
	if st.CacheEnabled {
		out.Cache = &cacheJSON{Hit: st.CacheHit}
	}
	return out
}

// apiAsk answers a Figure 5(a) biological question with the integrated view
// as JSON. POST takes an askRequest body; GET takes the HTML form's query
// parameters (t_<Source>=include|exclude, combine, field/op/value), so every
// form URL has a machine-readable twin under /api.
func (s *server) apiAsk(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	var q core.Question
	switch r.Method {
	case http.MethodPost:
		var req askRequest
		if !decodeBody(w, r, &req) {
			return
		}
		q.Include = req.Include
		q.Exclude = req.Exclude
		switch strings.ToLower(req.Combine) {
		case "", "all":
			q.Combine = core.CombineAll
		case "any":
			q.Combine = core.CombineAny
		default:
			jsonError(w, r, http.StatusBadRequest, "combine must be \"all\" or \"any\", got %q", req.Combine)
			return
		}
		for _, c := range req.Conditions {
			q.Conditions = append(q.Conditions, core.Condition{Field: c.Field, Op: c.Op, Value: c.Value})
		}
	default: // GET
		q = s.questionFromForm(r)
	}
	// AskCtx's steps, spelled out so the view sits behind the answer's memo.
	src, err := s.sys.ToLorel(q)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	res, stats, err := s.sys.QueryCtx(r.Context(), src)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	writeAskAnswer(w, r, src, res, stats)
}

type queryRequest struct {
	Query string `json:"query"`
}

// apiQuery runs a raw Lorel query in the global vocabulary: GET ?q=... or
// POST {"query": "..."}.
func (s *server) apiQuery(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	var src string
	switch r.Method {
	case http.MethodPost:
		var req queryRequest
		if !decodeBody(w, r, &req) {
			return
		}
		src = req.Query
	default: // GET
		src = r.FormValue("q")
	}
	if strings.TrimSpace(src) == "" {
		jsonError(w, r, http.StatusBadRequest, "missing query (POST {\"query\": ...} or GET ?q=...)")
		return
	}
	res, stats, err := s.sys.QueryCtx(r.Context(), src)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	writeQueryAnswer(w, r, src, res, stats)
}

// An /api/ask or /api/query response has one member that is a pure function
// of the cached answer — the rows, the text dump — and is memoized on it as
// encoded JSON. The rest is the request's own: query strings that differ in
// spacing or keyword case share one cache entry, and the cache flag differs
// between the miss and its hits. Either way the body is what the flat struct
// the member comes from encodes to.
type (
	askAnswer struct {
		Question  string          `json:"question"`
		Rows      json.RawMessage `json:"rows"`
		Conflicts int             `json:"conflicts"`
		Stats     statsJSON       `json:"stats"`
	}
	queryHead struct {
		Query   string `json:"query"`
		Answers int    `json:"answers"`
	}
	queryTail struct {
		Stats statsJSON `json:"stats"`
	}
)

// writeAskAnswer writes the /api/ask body for question's answer: its rows.
// The body goes through encoding/json whole, memoized rows included, which
// re-scans them; DESIGN.md ("Why /api/ask re-encodes its rows") says why it
// is not spliced like /api/query's text.
func writeAskAnswer(w http.ResponseWriter, r *http.Request, question string, res *lorel.Result, stats *mediator.Stats) {
	writeAnswer(w, r, res, stats, "rows",
		func() ([]byte, error) { return json.Marshal(askRows(core.NewView(res, stats))) },
		func(rows []byte) ([][]byte, error) {
			body, err := json.Marshal(askAnswer{Question: question, Rows: rows, Conflicts: len(stats.Conflicts), Stats: mediatorStats(stats)})
			return [][]byte{append(body, '\n')}, err
		})
}

// writeQueryAnswer writes the /api/query body for query's answer: its
// Figure 3 text, spliced between the fields before and after it. A member
// the cache will keep (stats.CacheHit: Rendering retains it) gets bytes of
// its own; one written once and dropped — every miss — is built in pooled
// scratch, returned once the body is written.
func writeQueryAnswer(w http.ResponseWriter, r *http.Request, query string, res *lorel.Result, stats *mediator.Stats) {
	var pooled *[]byte
	writeAnswer(w, r, res, stats, "text",
		func() ([]byte, error) {
			if stats.CacheHit {
				return textMember(nil, res)
			}
			pooled = scratch.Get().(*[]byte)
			b, err := textMember((*pooled)[:0], res)
			*pooled = b
			return b, err
		},
		func(text []byte) ([][]byte, error) {
			pre, post, err := around(queryHead{Query: query, Answers: res.Size()}, "text", queryTail{Stats: mediatorStats(stats)})
			return [][]byte{pre, text, post}, err
		})
	if pooled != nil {
		scratch.Put(pooled)
	}
}

func askRows(v *core.View) []rowJSON {
	rows := make([]rowJSON, 0, len(v.Rows))
	for _, row := range v.Rows {
		rows = append(rows, rowJSON{
			GeneID: row.GeneID, Symbol: row.Symbol, Organism: row.Organism,
			Position: row.Position, GoIDs: row.GoIDs, MimIDs: row.MimIDs,
			Proteins: row.Proteins, WebLinks: row.WebLinks,
		})
	}
	return rows
}

// scratch holds the buffers answer texts are rendered into before they are
// quoted, and the members of /api/query misses: a whole-gene answer's are
// megabytes.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// textMember appends the "text" member of an /api/query body to dst: the
// answer's Figure 3 text as a JSON string, what json.Marshal(oem.TextString(…))
// gives, in one walk and one quoting pass. An answer that will not render
// (a dangling reference) is an error, not a truncated text.
func textMember(dst []byte, res *lorel.Result) ([]byte, error) {
	text := scratch.Get().(*[]byte)
	defer scratch.Put(text)
	t, err := oem.AppendText((*text)[:0], res.Graph, "answer", res.Answer)
	*text = t
	if err != nil {
		return dst, err
	}
	// Escapes grow the text: a \u0026 per oid, a \n per line, \" per quote.
	return jsonstr.Append(slices.Grow(dst, len(t)+len(t)/4+2), t), nil
}

// writeAnswer is the shared tail of apiAsk and apiQuery. build encodes the
// member named key from res, and the encoding is kept on res under that name
// once the cache serves res a second time (lorel.Result.Rendering), so a hit
// builds nothing. body turns the member into the response body's parts,
// which writeBody writes in order. Miss, hit and uncached server all take
// this one path.
func writeAnswer(w http.ResponseWriter, r *http.Request, res *lorel.Result, stats *mediator.Stats, key string, build func() ([]byte, error), body func(member []byte) ([][]byte, error)) {
	tr := obs.TraceFrom(r.Context()) // nil (and inert) when the request is not traced
	t0 := obs.Now()
	member, memo, err := res.Rendering(key, stats.CacheHit, build)
	var parts [][]byte
	if err == nil {
		parts, err = body(member)
	}
	if err != nil {
		encodeFailed(w, r, err)
		return
	}
	note := "built"
	if memo {
		note = "memo"
	}
	tr.SpanNote(obs.StageRender, t0, note)
	t0 = obs.Now()
	writeBody(w, http.StatusOK, parts...)
	tr.Span(obs.StageWrite, t0)
}

// around encodes what goes before and after a member named key: head's
// object without its closing brace, then `,"key":`; then tail's fields and
// closing brace, then the newline json.Encoder ends a value with. Both
// structs have at least one field, so the three parts are the encoding of
// one object holding head's fields, the member and tail's fields: the member
// is already compact, escaped JSON, so nothing copies or re-scans it.
func around(head any, key string, tail any) (pre, post []byte, err error) {
	if pre, err = json.Marshal(head); err != nil {
		return nil, nil, err
	}
	if post, err = json.Marshal(tail); err != nil {
		return nil, nil, err
	}
	pre = append(append(append(pre[:len(pre)-1], ',', '"'), key...), '"', ':')
	post[0] = ','
	return pre, append(post, '\n'), nil
}

type explainRequest struct {
	Query   string `json:"query"`
	Analyze bool   `json:"analyze"`
}

type explainResponse struct {
	Explain *mediator.Explain `json:"explain"`
	Text    string            `json:"text"`
}

// apiExplain explains a Lorel query without guessing: POST {"query": "...",
// "analyze": bool}. The response carries the structured plan report (plan
// tree, per-source prune decisions, pushdown verdicts with reasons, the
// cache/snapshot path choice) and its rendered text form; analyze also
// executes the query and adds actual per-stage cardinalities and timings.
func (s *server) apiExplain(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodPost) {
		return
	}
	var req explainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		jsonError(w, r, http.StatusBadRequest, "missing query (POST {\"query\": ..., \"analyze\": bool})")
		return
	}
	e, err := s.sys.Manager.ExplainString(req.Query, req.Analyze)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, explainResponse{Explain: e, Text: e.Format()})
}

// maxBatchQueries bounds one /api/batch request: enough for THEA-style
// analysis sweeps, small enough that one request cannot monopolize the
// worker pool.
const maxBatchQueries = 256

type batchRequest struct {
	Queries []string `json:"queries"`
}

type batchAnswerJSON struct {
	Query        string `json:"query"`
	Answers      int    `json:"answers"`
	Text         string `json:"text,omitempty"`
	Error        string `json:"error,omitempty"`
	EvalMicros   int64  `json:"eval_micros,omitempty"`
	SnapshotUsed bool   `json:"snapshot_used,omitempty"`
}

type batchResponse struct {
	Questions int               `json:"questions"`
	Failed    int               `json:"failed"`
	Answers   []batchAnswerJSON `json:"answers"`
	Stats     statsJSON         `json:"stats"`
}

// apiBatch evaluates many Lorel queries as one batch: POST {"queries":
// [...]}. All snapshot-safe questions are answered concurrently against a
// single pinned snapshot epoch, so the whole batch sees one consistent
// annotation world; a malformed question fails only its own answer.
func (s *server) apiBatch(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodPost) {
		return
	}
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		jsonError(w, r, http.StatusBadRequest, "missing queries (POST {\"queries\": [...]})")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		jsonError(w, r, http.StatusBadRequest, "batch too large: %d queries (limit %d)", len(req.Queries), maxBatchQueries)
		return
	}
	answers, stats, err := s.sys.QueryBatchCtx(r.Context(), req.Queries)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	resp := batchResponse{
		Questions: len(answers),
		Answers:   make([]batchAnswerJSON, 0, len(answers)),
		Stats:     mediatorStats(stats),
	}
	for _, a := range answers {
		aj := batchAnswerJSON{Query: a.Query}
		if a.Err != nil {
			aj.Error = a.Err.Error()
			resp.Failed++
		} else {
			aj.Answers = a.Result.Size()
			aj.Text = oem.TextString(a.Result.Graph, "answer", a.Result.Answer)
			aj.EvalMicros = a.Stats.EvalTime.Microseconds()
			aj.SnapshotUsed = a.Stats.SnapshotUsed
		}
		resp.Answers = append(resp.Answers, aj)
	}
	writeJSON(w, r, http.StatusOK, resp)
}

type objectResponse struct {
	URL  string `json:"url"`
	Text string `json:"text"`
}

// apiObject renders the Figure 5(c) individual-object view as JSON.
func (s *server) apiObject(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet) {
		return
	}
	url := r.FormValue("url")
	if url == "" {
		jsonError(w, r, http.StatusBadRequest, "missing url parameter")
		return
	}
	out, err := s.sys.ObjectView(url)
	if err != nil {
		jsonError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, r, http.StatusOK, objectResponse{URL: url, Text: out})
}

type refreshRequest struct {
	Source string `json:"source"`
}

type refreshResponse struct {
	Source      string `json:"source"`
	OldVersion  uint64 `json:"old_version"`
	NewVersion  uint64 `json:"new_version"`
	Upserted    int    `json:"upserted"`
	Deleted     int    `json:"deleted"`
	Total       int    `json:"total"`
	Native      bool   `json:"native,omitempty"`
	FullRebuild bool   `json:"full_rebuild,omitempty"`
	Reason      string `json:"reason,omitempty"`
	Patched     bool   `json:"patched"`
	Invalidated int    `json:"invalidated"`
	TookMicros  int64  `json:"took_micros"`
}

type checkpointResponse struct {
	Seq        uint64 `json:"seq"`
	Bytes      int    `json:"bytes"`
	TookMicros int64  `json:"took_micros"`
}

// apiCheckpoint writes a durable snapshot checkpoint on demand: POST with
// an empty body. 409 when the server runs without -data-dir.
func (s *server) apiCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodPost) {
		return
	}
	res, err := s.sys.Manager.SaveSnapshotCtx(r.Context())
	switch {
	case errors.Is(err, mediator.ErrPersistenceDisabled):
		jsonError(w, r, http.StatusConflict, "persistence not enabled (start the server with -data-dir)")
	case err != nil:
		jsonError(w, r, http.StatusInternalServerError, "checkpoint: %v", err)
	default:
		writeJSON(w, r, http.StatusOK, checkpointResponse{Seq: res.Seq, Bytes: res.Bytes, TookMicros: res.Took.Microseconds()})
	}
}

// apiRefresh refreshes one annotation source through the delta subsystem
// and reports the applied ChangeSet: POST {"source": "GO"}.
func (s *server) apiRefresh(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodPost) {
		return
	}
	var req refreshRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" {
		jsonError(w, r, http.StatusBadRequest, "missing source (POST {\"source\": ...})")
		return
	}
	if s.sys.Registry.Get(req.Source) == nil {
		jsonError(w, r, http.StatusNotFound, "source %q not registered", req.Source)
		return
	}
	rr, err := s.sys.Manager.RefreshSourceCtx(r.Context(), req.Source)
	if err != nil {
		// The source exists; a failure here is a wrapper/model problem,
		// not a routing one.
		jsonError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	// The navigation index was built over the old models; re-resolve.
	if err := s.sys.Resolver.Reindex(); err != nil {
		jsonError(w, r, http.StatusInternalServerError, "reindex after refresh: %v", err)
		return
	}
	writeJSON(w, r, http.StatusOK, refreshResponse{
		Source:      rr.Source,
		OldVersion:  rr.OldVersion,
		NewVersion:  rr.NewVersion,
		Upserted:    rr.Upserted,
		Deleted:     rr.Deleted,
		Total:       rr.Total,
		Native:      rr.Native,
		FullRebuild: rr.FullRebuild,
		Reason:      rr.Reason,
		Patched:     rr.Patched,
		Invalidated: rr.Invalidated,
		TookMicros:  rr.Took.Microseconds(),
	})
}

// healthz is the liveness probe: the system is up and its sources resolve.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"status":  "ok",
		"sources": s.sys.Registry.Names(),
		"genes":   len(s.sys.Corpus.Genes),
	})
}

// readyz is the readiness probe, distinct from /healthz liveness: the body
// is the mediator's Readiness verdict (status + per-source breaker state).
// "ready" and — by default — "degraded" answer 200, because a degraded
// mediator is still answering from its healthy subset; "down" (a required
// source unavailable, or below the MinSources floor) answers 503. With
// -ready-strict, "degraded" answers 503 too, so a load balancer ejects
// replicas serving partial annotation worlds.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet) {
		return
	}
	rd := s.sys.Manager.Readiness()
	status := http.StatusOK
	if rd.Status == "down" || (s.readyStrict && rd.Status != "ready") {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, r, status, rd)
}

// statsz is the registry as JSON: every counter, gauge and histogram
// _sum/_count of Registry.Gather() — the same gather /metrics prints as
// text, so the two cannot disagree — keyed by exposition identity, plus the
// two structured views no flat series carries (per-source health and the
// per-source statistics table).
func (s *server) statsz(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet) {
		return
	}
	metrics := map[string]float64{}
	for _, f := range s.o.Reg.Gather() {
		for _, p := range f.Points {
			if !p.Bucket {
				metrics[p.Key] = p.Value
			}
		}
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"uptime_seconds": int64(obs.Since(s.start).Seconds()),
		"metrics":        metrics,
		"health":         s.sys.Manager.Readiness(),
		"source_stats":   s.sys.Manager.SourceStats(),
	})
}

// questionFromForm decodes the HTML form's parameters into a Question —
// shared by the HTML /ask handler and GET /api/ask.
func (s *server) questionFromForm(r *http.Request) core.Question {
	var q core.Question
	for _, src := range s.sys.Registry.Names() {
		switch r.FormValue("t_" + src) {
		case "include":
			q.Include = append(q.Include, src)
		case "exclude":
			q.Exclude = append(q.Exclude, src)
		}
	}
	if r.FormValue("combine") == "any" {
		q.Combine = core.CombineAny
	}
	if f := r.FormValue("field"); f != "" && r.FormValue("value") != "" {
		q.Conditions = append(q.Conditions, core.Condition{
			Field: f, Op: r.FormValue("op"), Value: r.FormValue("value"),
		})
	}
	return q
}
