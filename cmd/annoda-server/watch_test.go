package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/mediator"
	"repro/internal/oem"
	"repro/internal/snapstore"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
)

const watchTestQ = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// sseStream reads one open /api/watch connection, parsing id/event/data
// frames and counting comment frames (the preamble and heartbeats).
type sseStream struct {
	resp     *http.Response
	r        *bufio.Reader
	cancel   context.CancelFunc
	comments int
}

type sseFrame struct {
	id    string
	event string
	data  watchEventJSON
}

// openWatch connects to base+"/api/watch"+params and returns the live
// stream after verifying the SSE response headers arrived (i.e. the
// handler flushed before producing any event).
func openWatch(t *testing.T, base, params, lastEventID string) *sseStream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/watch"+params, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		defer cancel()
		t.Fatalf("GET /api/watch%s = %d", params, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	s := &sseStream{resp: resp, r: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(s.close)
	return s
}

func (s *sseStream) close() {
	s.cancel()
	s.resp.Body.Close()
}

// next blocks until a complete event frame arrives, tallying any comment
// frames passed over along the way.
func (s *sseStream) next(t *testing.T) sseFrame {
	t.Helper()
	var f sseFrame
	var data string
	seen := false
	for {
		line, err := s.r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended while waiting for an event: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				if err := json.Unmarshal([]byte(data), &f.data); err != nil {
					t.Fatalf("bad event payload %q: %v", data, err)
				}
				return f
			}
		case strings.HasPrefix(line, ":"):
			s.comments++
		case strings.HasPrefix(line, "id: "):
			f.id, seen = line[len("id: "):], true
		case strings.HasPrefix(line, "event: "):
			f.event, seen = line[len("event: "):], true
		case strings.HasPrefix(line, "data: "):
			data, seen = line[len("data: "):], true
		}
	}
}

// waitComments consumes the stream until n comment frames have been seen.
func (s *sseStream) waitComments(t *testing.T, n int) {
	t.Helper()
	for s.comments < n {
		line, err := s.r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended while waiting for heartbeats: %v", err)
		}
		if strings.HasPrefix(line, ":") {
			s.comments++
		}
	}
}

// warm materializes the fused snapshot so refreshes take the delta path.
func warm(t *testing.T, sys *core.System) {
	t.Helper()
	if _, _, err := sys.Manager.QueryString(watchTestQ); err != nil {
		t.Fatal(err)
	}
}

// refreshGO respells one annotated gene's GO organism, reloads the GO
// store in place (core.New parses each source once, so corpus edits alone
// are invisible to a refresh) and refreshes the GO source, guaranteeing a
// non-empty Annotation-concept delta. Everything runs on the test
// goroutine; the stream handler only sees the result through the hub's
// own synchronization.
func refreshGO(t *testing.T, sys *core.System, tag string) {
	t.Helper()
	c := sys.Corpus
	gi := -1
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 {
			gi = i
			break
		}
	}
	if gi < 0 {
		t.Fatal("corpus has no gene with GO terms")
	}
	c.Genes[gi].GOOrganism = "human (" + tag + ")"
	st, err := geneontology.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	*sys.GO = *st
	rr, err := sys.Manager.RefreshSourceCtx(context.Background(), "GO")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Upserted+rr.Deleted == 0 {
		t.Fatalf("test premise broken: GO edit produced an empty delta (%+v)", rr)
	}
}

// TestWatchExemptFromTimeoutAndFlushes is the regression test for the
// route-aware timeout wrap: under the production middleware stack the SSE
// stream must (a) deliver bytes incrementally — headers, preamble and
// heartbeats arrive while the handler is still running — and (b) outlive
// the per-request timeout that governs every other route. Before the fix,
// http.TimeoutHandler's buffered ResponseWriter swallowed http.Flusher, so
// the stream delivered nothing and died at the deadline.
func TestWatchExemptFromTimeoutAndFlushes(t *testing.T) {
	sys := freshSystem(t)
	warm(t, sys)
	const timeout = 250 * time.Millisecond
	srv := httptest.NewServer(newMux(sys, muxConfig{timeout: timeout, heartbeat: 20 * time.Millisecond}))
	t.Cleanup(srv.Close)

	start := time.Now()
	s := openWatch(t, srv.URL, "?concepts=Annotation", "")
	// 20 heartbeats at 20ms ≈ 400ms of live streaming, past the 250ms
	// deadline every buffered route would have hit.
	s.waitComments(t, 20)
	if lived := time.Since(start); lived <= timeout {
		t.Fatalf("read %d comment frames in %v; too fast to prove timeout exemption", s.comments, lived)
	}

	// The stream is still usable after outliving the deadline: a refresh
	// whose delta touches Annotation must arrive as a change event.
	refreshGO(t, sys, "exempt")
	f := s.next(t)
	if f.event != "change" || f.data.Kind != "change" {
		t.Fatalf("event = %q / %+v, want a change", f.event, f.data)
	}
	if len(f.data.Concepts) != 1 || f.data.Concepts[0] != "Annotation" {
		t.Errorf("change concepts = %v, want [Annotation]", f.data.Concepts)
	}
	if f.data.Seq == 0 || f.id == "" {
		t.Errorf("change event missing sequence: id=%q seq=%d", f.id, f.data.Seq)
	}

	// A plain request/response route under the same mux still enforces the
	// deadline (the exemption is /api/watch only).
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
}

// TestWatchResume: reconnecting with Last-Event-ID (or ?after=) replays
// the missed events from the hub's history ring in order.
func TestWatchResume(t *testing.T) {
	sys := freshSystem(t)
	warm(t, sys)
	srv := httptest.NewServer(newMux(sys, muxConfig{heartbeat: time.Hour}))
	t.Cleanup(srv.Close)

	sub, err := sys.Manager.SubscribeChanges(feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var seqs []uint64
	for i := 0; i < 2; i++ {
		refreshGO(t, sys, "resume-"+strconv.Itoa(i))
		ev, ok := sub.Next()
		if !ok {
			t.Fatal("refresh published no change event")
		}
		seqs = append(seqs, ev.Seq)
	}
	if seqs[0] == 0 || seqs[1] <= seqs[0] {
		t.Fatalf("feed sequence did not advance: %v", seqs)
	}

	s := openWatch(t, srv.URL, "?after=0", "")
	for i, want := range seqs {
		f := s.next(t)
		if f.event != "change" || f.data.Seq != want {
			t.Fatalf("replayed event %d = %q seq %d, want change seq %d", i, f.event, f.data.Seq, want)
		}
	}
	s.close()

	// Last-Event-ID takes over from ?after: only events past it replay.
	s2 := openWatch(t, srv.URL, "", strconv.FormatUint(seqs[0], 10))
	f := s2.next(t)
	if f.data.Seq != seqs[1] {
		t.Fatalf("Last-Event-ID resume replayed seq %d, want %d", f.data.Seq, seqs[1])
	}
}

// TestWatchStandingQuerySSE: a ?query= subscription pushes the baseline
// answer immediately, then a fresh answer — byte-equal to re-running the
// query — only when a refresh actually changes it.
func TestWatchStandingQuerySSE(t *testing.T) {
	sys := freshSystem(t)
	warm(t, sys)
	srv := httptest.NewServer(newMux(sys, muxConfig{heartbeat: time.Hour}))
	t.Cleanup(srv.Close)

	freshText := func() string {
		res, _, err := sys.Manager.QueryString(watchTestQ)
		if err != nil {
			t.Fatal(err)
		}
		return oem.CanonicalText(res.Graph, "answer", res.Answer)
	}

	// NoSuchConcept filters out broadcast change events; answers bypass
	// the filter, so the stream carries only this query's pushes.
	s := openWatch(t, srv.URL, "?concepts=NoSuchConcept&query="+url.QueryEscape(watchTestQ), "")
	base := s.next(t)
	if base.event != "answer" || !base.data.Initial {
		t.Fatalf("baseline frame = %q / %+v, want an initial answer", base.event, base.data)
	}
	if base.data.Text != freshText() {
		t.Fatal("baseline answer diverges from a fresh query")
	}

	// An answer-changing edit: respell the description of a gene in the
	// answer set (annotated, disease-free, description survives fusion).
	c := sys.Corpus
	diseased := map[int]bool{}
	for _, d := range c.Diseases {
		for _, l := range d.Loci {
			diseased[l] = true
		}
	}
	gi := -1
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 && !diseased[c.Genes[i].LocusID] && !c.Genes[i].LLMissingDesc {
			gi = i
			break
		}
	}
	if gi < 0 {
		t.Fatal("corpus has no annotated, disease-free gene")
	}
	c.Genes[gi].Description = "sse standing-query edit"
	db, err := locuslink.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	*sys.LocusLink = *db
	if _, err := sys.Manager.RefreshSourceCtx(context.Background(), "LocusLink"); err != nil {
		t.Fatal(err)
	}
	want := freshText()
	if want == base.data.Text {
		t.Fatal("test premise broken: the edit did not change the answer")
	}
	f := s.next(t)
	if f.event != "answer" || f.data.Initial {
		t.Fatalf("pushed frame = %q / %+v, want a non-initial answer", f.event, f.data)
	}
	if f.data.Text != want {
		t.Error("pushed answer is not byte-equal to a fresh query on the post-refresh epoch")
	}
	if f.data.Query == "" {
		t.Error("answer event does not echo the canonical query")
	}
}

// TestWatchBadRequests: every rejection happens before the SSE headers,
// as a plain JSON error.
func TestWatchBadRequests(t *testing.T) {
	h := newMux(freshSystem(t), muxConfig{heartbeat: time.Hour})
	cases := []struct {
		target string
		want   int
	}{
		{"/api/watch?query=select+G+from", http.StatusBadRequest},
		{"/api/watch?query=" + url.QueryEscape(`select G from ANNODA-GML.Gene G where G.Symbol = "Z"`), http.StatusBadRequest},
		{"/api/watch?after=notanumber", http.StatusBadRequest},
		{"/api/watch?buffer=0", http.StatusBadRequest},
		{"/api/watch?buffer=99999", http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := get(t, h, tc.target)
		if rec.Code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.target, rec.Code, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Errorf("GET %s Content-Type = %q, want a JSON error", tc.target, ct)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/watch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/watch = %d, want 405", rec.Code)
	}

	// A cache-disabled system has no epochs and therefore no feed: 409.
	cfg := datagen.Config{Seed: 779, Genes: 30, GoTerms: 20, Diseases: 10}
	sysNC, err := core.New(datagen.Generate(cfg), mediator.Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	hNC := newMux(sysNC, muxConfig{heartbeat: time.Hour})
	if rec := get(t, hNC, "/api/watch"); rec.Code != http.StatusConflict {
		t.Errorf("watch on cache-disabled server = %d, want 409", rec.Code)
	}
}

// TestStatszFeedAndPruneCounters: /statsz surfaces the feed counters and,
// with persistence enabled, the prune-failure counter.
func TestStatszFeedAndPruneCounters(t *testing.T) {
	sys := freshSystem(t)
	st, err := snapstore.Open(t.TempDir(), snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		t.Fatal(err)
	}
	warm(t, sys)
	h := newMux(sys, muxConfig{heartbeat: time.Hour})
	m := statszMetrics(t, h)
	for _, want := range []string{"annoda_feed_events_published_total", "annoda_feed_subscribers", "annoda_snapshot_prune_failures_total"} {
		if _, ok := m[want]; !ok {
			t.Errorf("/statsz missing %s", want)
		}
	}
}
