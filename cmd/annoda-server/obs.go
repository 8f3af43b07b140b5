package main

// HTTP-layer observability: request IDs, per-route metrics, request traces,
// and the /api/debug/traces view. The instrument middleware is the
// outermost layer of the chain so the request ID exists before anything
// can fail — panic bodies, timeout bodies, and every jsonError carry it.

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// ridKey is the context key for the request ID. The ID is carried
// separately from the trace because every request gets an ID (error
// correlation must survive sampling) while only sampled requests get a
// trace.
type ridKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// requestIDFrom returns the request's ID, or "" outside the middleware
// (direct handler tests).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// knownRoutes is the closed label set for per-route metrics: URL paths are
// attacker-controlled, and an unbounded label set is a time-series leak.
// Unknown paths aggregate as "(other)"; newMux refuses to register a route
// that is not listed here.
var knownRoutes = map[string]bool{
	"/": true, "/ask": true, "/object": true,
	"/api/ask": true, "/api/query": true, "/api/explain": true, "/api/batch": true,
	"/api/object": true, "/api/refresh": true, "/api/admin/checkpoint": true,
	"/api/watch": true, "/api/debug/traces": true,
	"/metrics": true, "/healthz": true, "/readyz": true, "/statsz": true,
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	return "(other)"
}

// untracedRoutes never start a request trace: scrapes, probes and debug reads
// would otherwise fill the recent ring with their own noise, and the
// /api/watch stream lives as long as the connection, which is not an
// operation a trace usefully describes. Metrics still cover all of them.
var untracedRoutes = map[string]bool{
	"/metrics": true, "/api/debug/traces": true,
	"/healthz": true, "/readyz": true, "/statsz": true,
	"/api/watch": true,
}

// statusRecorder captures the response status for metrics and error logs.
// It forwards Flush so the SSE route keeps streaming through it (the
// underlying writer's Flusher is only reachable on the unwrapped /api/watch
// path; elsewhere http.TimeoutHandler already swallows it).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// instrument is the outermost middleware: mint the request ID, expose it
// as X-Request-ID, start the request trace (subject to sampling and the
// untraced-route exemption), and record the per-route duration histogram,
// response-class counter, and in-flight gauge. The op histograms observe
// every request unconditionally — their _count is the request count —
// while traces may be sampled.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := obs.NewRequestID()
		w.Header().Set("X-Request-ID", rid)
		route := routeLabel(r.URL.Path)
		ctx := withRequestID(r.Context(), rid)
		var tr *obs.Trace
		if !untracedRoutes[route] {
			tr = s.o.Tracer.StartID(rid, "http", r.Method+" "+r.URL.Path)
			ctx = obs.ContextWithTrace(ctx, tr)
		}
		s.o.M.HTTPInFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		t0 := obs.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		d := obs.Since(t0)
		s.o.M.HTTPInFlight.Add(-1)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		s.o.M.HTTPDur.With(route).Observe(d)
		s.o.M.HTTPResp.With(route, statusClass(status)).Inc()
		if status >= 500 {
			s.logf("request %s %s %s -> %d (%v)", rid, r.Method, r.URL.Path, status, d)
		}
		if status >= 400 {
			tr.Annotate(http.StatusText(status))
		}
		tr.Finish()
	})
}

// timed wraps next in the per-request timeout. The http.TimeoutHandler is
// built per request so its 503 body can name the request ID minted by
// instrument — the one piece of the response that must survive the
// handler being abandoned mid-flight.
func (s *server) timed(next http.Handler, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Request IDs are hex-and-dash, so strconv.Quote is JSON-safe.
		body := `{"error":"request timed out","request_id":` +
			strconv.Quote(requestIDFrom(r.Context())) + `}`
		http.TimeoutHandler(next, timeout, body).ServeHTTP(w, r)
	})
}

// tracesResponse is the GET /api/debug/traces payload.
type tracesResponse struct {
	SlowThresholdMicros int64           `json:"slow_threshold_micros"`
	Recent              []obs.TraceView `json:"recent"`
	Slow                []obs.TraceView `json:"slow"`
}

// apiDebugTraces serves the recent- and slow-trace rings as JSON, newest
// first — the on-box answer to "what has this server been doing and where
// did the time go".
func (s *server) apiDebugTraces(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, r, http.StatusOK, tracesResponse{
		SlowThresholdMicros: s.o.Tracer.SlowThreshold().Microseconds(),
		Recent:              s.o.Tracer.Recent(),
		Slow:                s.o.Tracer.Slow(),
	})
}
