// Command annoda-server serves ANNODA's three Figure 5 views over HTTP,
// plus a JSON API and operational endpoints:
//
//	/            the query interface (Figure 5(a))
//	/ask         the annotation integrated view (Figure 5(b))
//	/object?url= the individual object view (Figure 5(c))
//	/api/ask     the integrated view as JSON (POST body or form params)
//	/api/query   raw Lorel queries as JSON
//	/api/explain POST {"query": ..., "analyze": bool}: the query plan —
//	             plan tree, per-source prune decisions, pushdown verdicts
//	             with reasons, cache/snapshot path — plus, with analyze,
//	             actual per-stage cardinalities and timings (the selectivity
//	             cost model's pushdown verdict is reported, advisory only)
//	/api/batch   many Lorel queries evaluated concurrently against one
//	             pinned snapshot epoch (POST {"queries": [...]})
//	/api/object  the object view as JSON
//	/api/refresh POST {"source": ...}: refresh one source via the delta
//	             subsystem
//	/api/admin/checkpoint  POST: write a durable snapshot checkpoint now
//	             (requires -data-dir)
//	/api/watch   GET: Server-Sent Events stream of change-feed notifications
//	             (?concepts=, ?query= for standing queries, ?summary=1,
//	             Last-Event-ID resume); exempt from the request timeout
//	/api/debug/traces  GET: recent and slow request traces as JSON, newest
//	             first (`annoda traces` renders them)
//	/metrics     Prometheus text exposition of the one metric registry:
//	             op/stage/HTTP latency histograms plus cache, epoch, delta,
//	             WAL, checkpoint, feed and per-source health counters
//	/healthz     liveness probe
//	/readyz      readiness probe: "ready"/"degraded" answer 200 (degraded
//	             replicas still serve the healthy subset), "down" answers
//	             503; -ready-strict turns degraded into 503 too
//	/statsz      the same registry gather as JSON ("metrics": every counter,
//	             gauge and histogram _sum/_count keyed like its /metrics
//	             line), plus per-source health and the per-source statistics
//	             table (entities, label cardinalities, fetch EWMA, observed
//	             pushdown selectivities)
//
// /api/ask, /api/query, /api/batch and /api/explain answer 400 for a bad
// request and 503 + Retry-After when a source's open breaker refused the
// fetch. A POST body is exactly one JSON value: unknown fields and trailing
// data are a 400. Every JSON response carries Content-Length.
//
// Every response carries an X-Request-ID header; error bodies, panic logs
// and timeout bodies repeat the ID so a client-side failure can be joined
// to the server-side trace (-trace-sample, -trace-ring, -slow-query tune
// the tracer).
//
// Every request runs under a timeout and panic recovery; repeated questions
// are answered from the mediator's sharded result cache (disable with
// -nocache). The server drains in-flight requests on SIGINT/SIGTERM.
//
// -pprof ADDR serves net/http/pprof on a separate mux at ADDR (e.g.
// "localhost:6060") so lock-contention and CPU claims about the serving
// path are profileable in production without exposing the profiler on the
// public listener. Off by default.
//
// Source fault tolerance (see DESIGN.md "Fault tolerance"): every source
// fetch runs under a circuit breaker with bounded retries (-source-timeout,
// -source-retries, -breaker-threshold, -breaker-backoff,
// -breaker-backoff-max). With -min-sources N > 0 the mediator keeps
// answering from the healthy subset when sources fail — answers and /statsz
// report the missing sources — while -require-sources lists sources whose
// failure must stay fatal. -health-probe INTERVAL starts a background loop
// that probes unhealthy sources and folds recovered ones back into the
// serving world.
//
// -data-dir DIR enables the durable snapshot store: on boot the server
// restores the fused annotation world from the newest valid checkpoint
// (replaying its delta WAL) instead of fetching and fusing every source;
// while serving, each incremental refresh is appended to the WAL and
// folded into a fresh checkpoint per the auto-checkpoint policy; on
// graceful shutdown a final checkpoint is flushed. See DESIGN.md
// "Persistence".
//
// Start it and open http://localhost:8077/ — submitting the default form
// reproduces the paper's running example.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/health"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/snapstore"
)

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>ANNODA</title><style>
body{font-family:sans-serif;margin:2em;background:#f4f6f8}
table{border-collapse:collapse}td,th{border:1px solid #aab;padding:4px 8px;font-size:13px}
th{background:#dde4ee}.box{background:#fff;border:1px solid #ccd;padding:1em;margin-bottom:1em}
code{background:#eef}a{color:#225}</style></head><body>
<h1>ANNODA &mdash; integrating molecular-biological annotation data</h1>
{{.Body}}
</body></html>`))

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	genes := flag.Int("genes", 1000, "corpus size")
	reqTimeout := flag.Duration("timeout", defaultRequestTimeout, "per-request timeout")
	cacheSize := flag.Int("cache-size", 0, "result cache capacity in entries (0 = default)")
	cacheTTL := flag.Duration("cache-ttl", 0, "result cache TTL (0 = no expiry)")
	noCache := flag.Bool("nocache", false, "disable the result cache")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	dataDir := flag.String("data-dir", "", "durable snapshot store directory: restore-on-boot, per-refresh WAL, checkpoint on shutdown (empty = memory only)")
	ckptEvery := flag.Int("checkpoint-every", 0, "auto-checkpoint after this many WAL records (0 = default)")
	fsyncWAL := flag.Bool("fsync-wal", false, "fsync the delta WAL on every append (durable refreshes at the cost of append latency)")
	watchHeartbeat := flag.Duration("watch-heartbeat", defaultWatchHeartbeat, "/api/watch SSE keep-alive interval")
	traceSample := flag.Int("trace-sample", 1, "trace 1 in N requests (1 = every request, the default)")
	traceRing := flag.Int("trace-ring", 0, "recent-trace ring capacity (0 = default)")
	slowQuery := flag.Duration("slow-query", 0, "slow-query log threshold (0 = default)")
	srcTimeout := flag.Duration("source-timeout", 0, "per-attempt source fetch deadline (0 = none)")
	srcRetries := flag.Int("source-retries", 0, "in-fetch retries before a source failure is charged to its breaker")
	brThreshold := flag.Int("breaker-threshold", 0, "consecutive failures before a source's breaker opens (0 = default)")
	brBackoff := flag.Duration("breaker-backoff", 0, "initial breaker backoff window (0 = default)")
	brBackoffMax := flag.Duration("breaker-backoff-max", 0, "breaker backoff window cap (0 = default)")
	healthProbe := flag.Duration("health-probe", 0, "probe unhealthy sources at this interval and re-admit recovered ones (0 = disabled)")
	minSources := flag.Int("min-sources", 0, "answer from the healthy subset while at least this many sources survive (0 = strict: any source failure fails the query)")
	requireSources := flag.String("require-sources", "", "comma-separated sources whose failure is always fatal, even in degraded mode")
	readyStrict := flag.Bool("ready-strict", false, "/readyz answers 503 when degraded instead of 200")
	flag.Parse()

	if *pprofAddr != "" {
		// Contention profiles sample nothing until their rates are set;
		// without these the mutex/block endpoints would always be empty.
		runtime.SetMutexProfileFraction(100) // sample 1% of contended mutex events
		runtime.SetBlockProfileRate(int(time.Millisecond))
		go func() {
			log.Printf("pprof listening on %s (mutex/block profiling via /debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux()); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	cfg := datagen.DefaultConfig()
	cfg.Genes = *genes
	var required []string
	for _, s := range strings.Split(*requireSources, ",") {
		if s = strings.TrimSpace(s); s != "" {
			required = append(required, s)
		}
	}
	sys, err := core.New(datagen.Generate(cfg), mediator.Options{
		CacheSize:      *cacheSize,
		CacheTTL:       *cacheTTL,
		DisableCache:   *noCache,
		FetchTimeout:   *srcTimeout,
		FetchRetries:   *srcRetries,
		MinSources:     *minSources,
		RequireSources: required,
		Health: health.Config{
			FailureThreshold: *brThreshold,
			BaseBackoff:      *brBackoff,
			MaxBackoff:       *brBackoffMax,
		},
		Obs: obs.New(obs.Config{
			SampleEvery:   *traceSample,
			RingSize:      *traceRing,
			SlowThreshold: *slowQuery,
			Logf:          log.Printf,
		}),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.PlugInProteins(); err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		st, err := snapstore.Open(*dataDir, snapstore.Options{Sync: *fsyncWAL})
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{EveryRecords: *ckptEvery}); err != nil {
			log.Fatal(err)
		}
		rr, err := sys.Manager.LoadSnapshot()
		switch {
		case err != nil:
			// The store is unusable (I/O, permissions); serve cold rather
			// than refuse to start — persistence is an accelerator, not a
			// dependency.
			log.Printf("snapshot restore failed (%v); serving cold", err)
		case rr.Restored:
			log.Printf("restored snapshot seq %d from %s: %d objects, %d genes, %d WAL records replayed in %v (%d ladder fallbacks)",
				rr.Seq, *dataDir, rr.Objects, rr.Genes, rr.WALReplayed, rr.Took.Round(time.Millisecond), rr.Fallbacks)
			if rr.WALTruncated {
				log.Printf("WARNING: the restored WAL had a torn or corrupt tail; refreshes after the last valid record were dropped")
			}
		default:
			log.Printf("no restorable snapshot in %s (%s); cold start", *dataDir, rr.Reason)
		}
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: newMux(sys, muxConfig{
			timeout:     *reqTimeout,
			heartbeat:   *watchHeartbeat,
			readyStrict: *readyStrict,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, drain in-flight
	// requests, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *healthProbe > 0 {
		go probeLoop(ctx, sys.Manager, *healthProbe)
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("annoda-server listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		log.Print("shutting down; draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// Final flush: fold anything the store does not yet reflect into a
		// checkpoint, so the next boot warm-starts from the exact world
		// this process was serving. A clean store is a no-op.
		if res, saved, err := sys.Manager.FlushSnapshot(); err != nil {
			log.Printf("final snapshot flush: %v", err)
		} else if saved {
			log.Printf("final snapshot flushed: seq %d, %d bytes in %v", res.Seq, res.Bytes, res.Took.Round(time.Millisecond))
		}
	}
}

// probeLoop periodically probes every source that is not fully serving
// (breaker open/degraded, or missing from the fused epoch) and lets the
// mediator re-admit the ones that answer. A *health.DownError just means
// the breaker's backoff window has not elapsed — silent, by design: the
// loop ticks much faster than an outage resolves, and logging every
// refused probe would drown the log. Real probe failures and recoveries
// are both worth a line.
func probeLoop(ctx context.Context, m *mediator.Manager, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, sh := range m.SourceHealth() {
			if sh.StateCode == int(health.StateHealthy) && !sh.MissingFromEpoch {
				continue
			}
			pctx, cancel := context.WithTimeout(ctx, every)
			err := m.ProbeSource(pctx, sh.Source)
			cancel()
			var down *health.DownError
			switch {
			case err == nil:
				log.Printf("source %s recovered; re-admitted to the serving world", sh.Source)
			case errors.As(err, &down):
				// Breaker still cooling off; try again next tick.
			default:
				log.Printf("source %s probe failed: %v", sh.Source, err)
			}
		}
	}
}

// pprofMux builds the profiler handler tree on its own mux: the handlers
// are registered explicitly instead of importing net/http/pprof for its
// DefaultServeMux side effect, so the main listener never exposes them.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *server) render(w http.ResponseWriter, body template.HTML) {
	if err := pageTmpl.Execute(w, struct{ Body template.HTML }{body}); err != nil {
		log.Print(err)
	}
}

// form is the Figure 5(a) query interface: include/exclude targets,
// combination method, search conditions.
func (s *server) form(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	b.WriteString(`<div class="box"><h2>Query interface (Figure 5a)</h2>
<form action="/ask" method="GET"><table>
<tr><th>Source</th><th>Include</th><th>Exclude</th><th>Ignore</th></tr>`)
	for _, src := range s.sys.Registry.Names() {
		if src == "LocusLink" {
			continue // the gene population itself
		}
		fmt.Fprintf(&b, `<tr><td>%s</td>
<td><input type="radio" name="t_%s" value="include"%s></td>
<td><input type="radio" name="t_%s" value="exclude"%s></td>
<td><input type="radio" name="t_%s" value="ignore"%s></td></tr>`,
			src, src, check(src == "GO"), src, check(src == "OMIM"), src, check(src != "GO" && src != "OMIM"))
	}
	b.WriteString(`</table>
<p>Combine included targets:
<select name="combine"><option value="all">all of them (AND)</option>
<option value="any">any of them (OR)</option></select></p>
<p>Condition: G.<input name="field" size="12" placeholder="Organism">
<select name="op"><option>=</option><option>!=</option><option>like</option></select>
<input name="value" size="20" placeholder="Homo sapiens"></p>
<p><input type="submit" value="Run biological question"></p></form>
<p>The defaults reproduce the paper&rsquo;s example: genes annotated with
some GO function but not associated with an OMIM disease.</p></div>`)
	s.render(w, template.HTML(b.String()))
}

func check(b bool) string {
	if b {
		return ` checked`
	}
	return ""
}

// ask renders the Figure 5(b) integrated view.
func (s *server) ask(w http.ResponseWriter, r *http.Request) {
	q := s.questionFromForm(r)
	view, stats, err := s.sys.AskCtx(r.Context(), q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="box"><h2>Annotation integrated view (Figure 5b)</h2>
<p>Lorel: <code>%s</code></p><table>
<tr><th>Symbol</th><th>GeneID</th><th>Organism</th><th>Position</th><th>GO</th><th>OMIM</th><th>Proteins</th><th>Links</th></tr>`,
		template.HTMLEscapeString(view.Question))
	for _, row := range view.Rows {
		var links []string
		for _, u := range row.WebLinks {
			links = append(links, fmt.Sprintf(`<a href="/object?url=%s">%s</a>`,
				template.URLQueryEscaper(u), template.HTMLEscapeString(shortURL(u))))
		}
		var mims []string
		for _, m := range row.MimIDs {
			mims = append(mims, fmt.Sprintf("%d", m))
		}
		fmt.Fprintf(&b, `<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>`,
			template.HTMLEscapeString(row.Symbol), row.GeneID,
			template.HTMLEscapeString(row.Organism), template.HTMLEscapeString(row.Position),
			template.HTMLEscapeString(strings.Join(row.GoIDs, ", ")),
			strings.Join(mims, ", "),
			template.HTMLEscapeString(strings.Join(row.Proteins, ", ")),
			strings.Join(links, " "))
	}
	fmt.Fprintf(&b, `</table><p>%d genes; %d conflicts reconciled.</p><pre>%s</pre>
<p><a href="/">back to the query interface</a></p></div>`,
		len(view.Rows), view.Conflicts, template.HTMLEscapeString(stats.String()))
	s.render(w, template.HTML(b.String()))
}

func shortURL(u string) string {
	u = strings.TrimPrefix(u, "http://")
	if len(u) > 40 {
		u = u[:37] + "..."
	}
	return u
}

// object renders the Figure 5(c) individual object view.
func (s *server) object(w http.ResponseWriter, r *http.Request) {
	url := r.FormValue("url")
	out, err := s.sys.ObjectView(url)
	if err != nil {
		// Escape before reflecting: the URL is attacker-controlled input.
		w.WriteHeader(http.StatusNotFound)
		s.render(w, template.HTML(fmt.Sprintf(
			`<div class="box"><p>no object behind <code>%s</code></p></div>`,
			template.HTMLEscapeString(url))))
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<div class="box"><h2>Individual object view (Figure 5c)</h2>
<p><code>%s</code></p><pre>`, template.HTMLEscapeString(url))
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "link ") {
			u := strings.TrimSpace(strings.TrimPrefix(trimmed, "link"))
			fmt.Fprintf(&b, `  link           <a href="/object?url=%s">%s</a>`+"\n",
				template.URLQueryEscaper(u), template.HTMLEscapeString(u))
			continue
		}
		b.WriteString(template.HTMLEscapeString(line) + "\n")
	}
	b.WriteString(`</pre><p><a href="/">back to the query interface</a></p></div>`)
	s.render(w, template.HTML(b.String()))
}
