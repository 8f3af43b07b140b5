package main

// Tests for the /api/ask and /api/query response path: the body writeAnswer
// writes around the memoized member against the flat structs the handlers
// used to encode, the memo's lifetime, and the one writer and one decoder
// every JSON route shares.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lorel"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/sources/locuslink"
)

// askResponse and queryResponse are the reference encoders: the structs the
// handlers passed to json.NewEncoder before the rows and the text were
// memoized as encoded JSON and spliced between a head and a tail. Every body
// the server writes must be what encoding one of these gives.
type askResponse struct {
	Question  string    `json:"question"`
	Rows      []rowJSON `json:"rows"`
	Conflicts int       `json:"conflicts"`
	Stats     statsJSON `json:"stats"`
}

type queryResponse struct {
	Query   string    `json:"query"`
	Answers int       `json:"answers"`
	Text    string    `json:"text"`
	Stats   statsJSON `json:"stats"`
}

func referenceEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func referenceAsk(t *testing.T, v *core.View, st *mediator.Stats) []byte {
	t.Helper()
	resp := askResponse{Question: v.Question, Rows: make([]rowJSON, 0, len(v.Rows)), Conflicts: v.Conflicts, Stats: mediatorStats(st)}
	for _, row := range v.Rows {
		resp.Rows = append(resp.Rows, rowJSON{
			GeneID: row.GeneID, Symbol: row.Symbol, Organism: row.Organism,
			Position: row.Position, GoIDs: row.GoIDs, MimIDs: row.MimIDs,
			Proteins: row.Proteins, WebLinks: row.WebLinks,
		})
	}
	return referenceEncode(t, resp)
}

// e13Asks are the five E13 questions as /api/ask bodies beside their
// Question values.
var e13Asks = []struct {
	body string
	q    core.Question
}{
	{`{"include":["GO"],"exclude":["OMIM"]}`, core.Figure5bQuestion()},
	{`{"include":["OMIM"]}`, core.Question{Include: []string{"OMIM"}}},
	{`{"include":["GO","OMIM"],"combine":"any"}`, core.Question{Include: []string{"GO", "OMIM"}, Combine: core.CombineAny}},
	{`{"include":["GO"],"conditions":[{"field":"Symbol","op":"like","value":"A%"}]}`,
		core.Question{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Symbol", Op: "like", Value: "A%"}}}},
	{`{"exclude":["GO"]}`, core.Question{Exclude: []string{"GO"}}},
}

var goldenQueries = []string{
	`select G from ANNODA-GML.Gene G where exists G.Disease and not exists G.Annotation`,
	`select G.Symbol from ANNODA-GML.Gene G where G.GeneID < 1020`, // "<" is HTML-escaped by encoding/json
	`select G from ANNODA-GML.Gene G where G.Symbol like "A%"`,
	`select G from ANNODA-GML.Gene G`, // every gene whole: a multi-KB member
}

// withHit returns a copy of st stamped with the given cache outcome: a
// cached entry's Stats are the original computation's, so miss and hits of
// one entry differ in nothing else.
func withHit(st *mediator.Stats, hit bool) *mediator.Stats {
	cp := *st
	cp.CacheHit = hit
	return &cp
}

// TestAnswerBodiesMatchReferenceEncoder: miss, first hit (builds and retains
// the rendering) and later hit (serves it) are each byte-equal to
// json.NewEncoder of the flat reference struct built from the same
// View/Result/Stats, and differ from each other only in "hit".
func TestAnswerBodiesMatchReferenceEncoder(t *testing.T) {
	sys := freshSystem(t)
	h := newMux(sys, muxConfig{})
	wantHits := map[string]bool{"miss": false, "first hit": true, "later hit": true}
	order := []string{"miss", "first hit", "later hit"}

	for _, a := range e13Asks {
		bodies := map[string][]byte{}
		for _, step := range order {
			rec := postJSON(t, h, "/api/ask", a.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s = %d: %s", a.body, step, rec.Code, rec.Body)
			}
			bodies[step] = rec.Body.Bytes()
		}
		view, st, err := sys.Ask(a.q) // a further hit on the same entry
		if err != nil {
			t.Fatal(err)
		}
		if !st.CacheHit {
			t.Fatalf("%s: in-process Ask after three requests was not a hit", a.body)
		}
		for _, step := range order {
			if want := referenceAsk(t, view, withHit(st, wantHits[step])); !bytes.Equal(bodies[step], want) {
				t.Errorf("%s %s body differs from the reference encoding\n got: %.200s\nwant: %.200s", a.body, step, bodies[step], want)
			}
		}
	}

	for _, q := range goldenQueries {
		target := "/api/query?q=" + url.QueryEscape(q)
		bodies := map[string][]byte{}
		for _, step := range order {
			rec := get(t, h, target)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s = %d: %s", q, step, rec.Code, rec.Body)
			}
			bodies[step] = rec.Body.Bytes()
		}
		res, st, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range order {
			want := referenceEncode(t, queryResponse{
				Query: q, Answers: res.Size(), Text: oem.TextString(res.Graph, "answer", res.Answer),
				Stats: mediatorStats(withHit(st, wantHits[step])),
			})
			if !bytes.Equal(bodies[step], want) {
				t.Errorf("%s %s body differs from the reference encoding\n got: %.200s\nwant: %.200s", q, step, bodies[step], want)
			}
		}
	}

	// The Figure 5(b) question as a raw query canonicalizes to the entry
	// /api/ask already memoized a view on: the two routes share the Result
	// (so this first query is a hit) but not a rendering.
	q := `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`
	rec := get(t, h, "/api/query?q="+url.QueryEscape(q))
	res, st, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceEncode(t, queryResponse{
		Query: q, Answers: res.Size(), Text: oem.TextString(res.Graph, "answer", res.Answer), Stats: mediatorStats(st),
	})
	if !st.CacheHit || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("query on an entry /api/ask memoized: hit=%v\n got: %.200s\nwant: %.200s", st.CacheHit, rec.Body, want)
	}
}

// TestRenderErrorIs500: an answer whose text cannot be rendered — a
// reference to an object its graph does not hold — is a 500 naming the
// request, on a miss and on a hit, not a 200 with the text cut short; and
// the failed rendering is not memoized.
func TestRenderErrorIs500(t *testing.T) {
	g := oem.NewGraph()
	gene := g.NewComplex(oem.Ref{Label: "Symbol", Target: g.NewString("TP53")}, oem.Ref{Label: "Gone", Target: 999})
	res := &lorel.Result{Graph: g, Answer: g.NewComplex(oem.Ref{Label: "Gene", Target: gene})}
	req := httptest.NewRequest(http.MethodGet, "/api/query", nil)
	req = req.WithContext(withRequestID(req.Context(), "rid-dangling"))
	for _, hit := range []bool{false, true, true} {
		rec := httptest.NewRecorder()
		writeQueryAnswer(rec, req, "select G from ANNODA-GML.Gene G", res, &mediator.Stats{CacheEnabled: true, CacheHit: hit})
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("hit=%v: body is not a JSON error: %v (%.200s)", hit, err, rec.Body)
		}
		if rec.Code != http.StatusInternalServerError || e["request_id"] != "rid-dangling" || !strings.Contains(e["error"], "&999") {
			t.Errorf("hit=%v: %d %v, want a 500 naming &999 and the request", hit, rec.Code, e)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("hit=%v: Content-Length = %q, body is %d bytes", hit, cl, rec.Body.Len())
		}
	}
}

// TestPrunedQuestionDescribesTheEpoch pins the one wire-visible change of
// evaluating pruned questions on the epoch under a mask: the rows are the
// per-query pipeline's byte for byte, while "conflicts" and "stats" describe
// the epoch that answered — every source queried, none pruned, the
// federation-wide conflict count, and the hidden concepts under "masked".
func TestPrunedQuestionDescribesTheEpoch(t *testing.T) {
	type body struct {
		Rows      json.RawMessage `json:"rows"`
		Conflicts int             `json:"conflicts"`
		Stats     statsJSON       `json:"stats"`
	}
	ask := func(opts mediator.Options, req string) body {
		sys := freshSystemWith(t, opts)
		if err := sys.PlugInProteins(); err != nil {
			t.Fatal(err)
		}
		rec := postJSON(t, newMux(sys, muxConfig{}), "/api/ask", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", req, rec.Code, rec.Body)
		}
		var b body
		if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	const pruned = `{"include":["GO"]}` // names Gene and Annotation
	epoch := ask(mediator.Options{Obs: quietObs()}, pruned)
	pipeline := ask(mediator.Options{Obs: quietObs(), DisableCache: true}, pruned)
	full := ask(mediator.Options{Obs: quietObs()}, `{"include":["GO"],"exclude":["OMIM","ProtDB"]}`)

	if !bytes.Equal(epoch.Rows, pipeline.Rows) {
		t.Errorf("rows differ between the masked epoch and the pipeline\n got: %.300s\nwant: %.300s", epoch.Rows, pipeline.Rows)
	}
	st := epoch.Stats
	if !st.SnapshotUsed || !slices.Equal(st.Masked, []string{"Disease", "Protein"}) ||
		len(st.SourcesPruned) != 0 || !slices.Equal(st.SourcesQueried, full.Stats.SourcesQueried) || len(st.SourcesQueried) != 4 {
		t.Errorf("stats = %+v, want the epoch's: snapshot_used, masked [Disease Protein], four sources queried, none pruned", st)
	}
	if epoch.Conflicts != full.Conflicts || epoch.Stats.Conflicts != full.Stats.Conflicts || epoch.Conflicts == 0 {
		t.Errorf("conflicts = %d (stats %d), want the federation-wide %d", epoch.Conflicts, epoch.Stats.Conflicts, full.Conflicts)
	}
	if p := pipeline.Stats; p.SnapshotUsed || len(p.Masked) != 0 || !slices.Equal(p.SourcesPruned, []string{"OMIM", "ProtDB"}) || pipeline.Conflicts > epoch.Conflicts {
		t.Errorf("-nocache stats = %+v (conflicts %d), want the pruned pipeline's", p, pipeline.Conflicts)
	}
}

// TestAnswerBodiesUncached: a DisableCache system writes the reference
// encoding too (its timings change per request, so the body is compared with
// its own decode re-encoded through the reference struct).
func TestAnswerBodiesUncached(t *testing.T) {
	h := newMux(freshSystemWith(t, mediator.Options{DisableCache: true, Obs: quietObs()}), muxConfig{})
	for i := 0; i < 2; i++ {
		rec := postJSON(t, h, "/api/ask", e13Asks[0].body)
		var resp askResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Cache != nil || len(resp.Rows) == 0 {
			t.Fatalf("uncached ask: cache=%v rows=%d", resp.Stats.Cache, len(resp.Rows))
		}
		if want := referenceEncode(t, resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("uncached /api/ask body is not the reference encoding of itself")
		}

		rec = get(t, h, "/api/query?q="+url.QueryEscape(goldenQueries[1]))
		var qresp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qresp); err != nil {
			t.Fatal(err)
		}
		if want := referenceEncode(t, qresp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("uncached /api/query body is not the reference encoding of itself")
		}
	}
}

// TestQueryEchoIsPerRequest: two query strings that differ only in spacing,
// keyword case and parentheses share one cache entry — the second is a hit
// and serves the first's memoized text — yet each response echoes the string
// its own request sent.
func TestQueryEchoIsPerRequest(t *testing.T) {
	h := newMux(freshSystem(t), muxConfig{})
	a := `select G from ANNODA-GML.Gene G where  G.Symbol like "A%"`
	b := `SELECT G FROM ANNODA-GML.Gene G WHERE (G.Symbol LIKE "A%")`
	var ra, rb, rb2 queryResponse
	for _, step := range []struct {
		q    string
		into *queryResponse
	}{{a, &ra}, {b, &rb}, {b, &rb2}} {
		rec := postJSON(t, h, "/api/query", `{"query":`+strconv.Quote(step.q)+`}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", step.q, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), step.into); err != nil {
			t.Fatal(err)
		}
	}
	if ra.Stats.Cache.Hit || !rb.Stats.Cache.Hit || !rb2.Stats.Cache.Hit {
		t.Fatalf("hits = %v, %v, %v; want false, true, true", ra.Stats.Cache.Hit, rb.Stats.Cache.Hit, rb2.Stats.Cache.Hit)
	}
	if ra.Query != a || rb.Query != b || rb2.Query != b {
		t.Errorf("echoes = %q, %q, %q", ra.Query, rb.Query, rb2.Query)
	}
	if ra.Text == "" || rb.Text != ra.Text || rb2.Text != ra.Text || rb.Answers != ra.Answers {
		t.Errorf("the hit does not carry the miss's answer")
	}
}

// positionOf returns the Position /api/ask reports for symbol ("" when the
// gene is not in the view).
func positionOf(t *testing.T, h http.Handler, body, symbol string) (string, bool) {
	t.Helper()
	rec := postJSON(t, h, "/api/ask", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/ask = %d: %s", rec.Code, rec.Body)
	}
	var resp askResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, row := range resp.Rows {
		if row.Symbol == symbol {
			return row.Position, resp.Stats.Cache.Hit
		}
	}
	return "", resp.Stats.Cache.Hit
}

// TestRenderingDiesWithItsEntry: no rendering outlives the cache entry it
// hangs off. After a source edit + refresh, and after a source plug-in, the
// next /api/ask body shows the new world.
func TestRenderingDiesWithItsEntry(t *testing.T) {
	sys := freshSystem(t)
	h := newMux(sys, muxConfig{})
	const everyGene = `{}`
	gene := sys.Corpus.Genes[0]

	// Serve the entry until its rendering is memoized.
	var before string
	for i := 0; i < 3; i++ {
		before, _ = positionOf(t, h, everyGene, gene.Symbol)
	}
	if before == "" {
		t.Fatalf("gene %s not in the unconditioned view", gene.Symbol)
	}
	const moved = "99q99.9"
	if err := sys.LocusLink.Update(gene.LocusID, func(l *locuslink.Locus) { l.Position = moved }); err != nil {
		t.Fatal(err)
	}
	if rec := postJSON(t, h, "/api/refresh", `{"source":"LocusLink"}`); rec.Code != http.StatusOK {
		t.Fatalf("refresh = %d: %s", rec.Code, rec.Body)
	}
	after, hit := positionOf(t, h, everyGene, gene.Symbol)
	if hit || after != moved {
		t.Errorf("after refresh: position %q (hit=%v), want %q from a recomputed answer", after, hit, moved)
	}

	// Plug-in: memoize "no gene has a protein", then add ProtDB.
	target := "/api/query?q=" + url.QueryEscape(`select G from ANNODA-GML.Gene G where exists G.Protein`)
	var qresp queryResponse
	for i := 0; i < 4; i++ {
		if i == 3 {
			if err := sys.PlugInProteins(); err != nil {
				t.Fatal(err)
			}
		}
		rec := get(t, h, target)
		if err := json.Unmarshal(rec.Body.Bytes(), &qresp); err != nil {
			t.Fatalf("query %d = %d: %s", i, rec.Code, rec.Body)
		}
		if i < 3 && qresp.Answers != 0 {
			t.Fatalf("before plug-in: %d genes with a protein", qresp.Answers)
		}
	}
	if qresp.Stats.Cache.Hit || qresp.Answers == 0 || !strings.Contains(qresp.Text, "Accession") {
		t.Errorf("after plug-in: hit=%v, %d answers; want a recomputed answer with proteins", qresp.Stats.Cache.Hit, qresp.Answers)
	}
	if _, hit := positionOf(t, h, everyGene, gene.Symbol); hit {
		t.Error("after plug-in: /api/ask served an entry computed over the old source set")
	}
}

// TestHotEntryConcurrentReaders: 32 goroutines on one entry — racing the
// first hit's build-and-retain — all read identical bytes apart from the
// miss's own "hit":false. Run under -race.
func TestHotEntryConcurrentReaders(t *testing.T) {
	h := newMux(freshSystem(t), muxConfig{})
	const readers = 32
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/api/ask", bytes.NewReader([]byte(e13Asks[0].body)))
			h.ServeHTTP(rec, req)
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	hitBody := postJSON(t, h, "/api/ask", e13Asks[0].body).Body.Bytes()
	missBody := bytes.Replace(hitBody, []byte(`"cache":{"hit":true}`), []byte(`"cache":{"hit":false}`), 1)
	misses := 0
	for i, b := range bodies {
		switch {
		case bytes.Equal(b, hitBody):
		case bytes.Equal(b, missBody):
			misses++
		default:
			t.Errorf("reader %d read a body that is neither the hit's nor the miss's: %.120s", i, b)
		}
	}
	if misses != 1 {
		t.Errorf("%d of %d concurrent readers were misses, want exactly 1 (singleflight)", misses, readers)
	}
}

// TestRenderAndWriteStagesTraced: a traced /api/ask records a write span and
// a render span whose note says where the body came from — "built" for the
// miss and the first hit, "memo" once the entry is re-served; a DisableCache
// system never retains a rendering, so it builds every time.
func TestRenderAndWriteStagesTraced(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts mediator.Options
		want [3]string
	}{
		{"cached", mediator.Options{}, [3]string{"built", "built", "memo"}},
		{"uncached", mediator.Options{DisableCache: true}, [3]string{"built", "built", "built"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := quietObs()
			tc.opts.Obs = o
			h := newMux(freshSystemWith(t, tc.opts), muxConfig{})
			var notes [3]string
			for i := range notes {
				rid := postJSON(t, h, "/api/ask", e13Asks[0].body).Header().Get("X-Request-ID")
				stages := map[string]string{}
				for _, tv := range o.Tracer.Recent() {
					if tv.ID == rid {
						for _, sp := range tv.Spans {
							stages[sp.Stage] = sp.Note
						}
					}
				}
				if _, ok := stages[obs.StageWrite]; !ok {
					t.Errorf("request %d (%s): no write span in its trace: %v", i, rid, stages)
				}
				notes[i] = stages[obs.StageRender]
			}
			if notes != tc.want {
				t.Errorf("render notes = %v, want %v", notes, tc.want)
			}
		})
	}
}

// TestWriteJSON: the one writer sets Content-Length on success and turns a
// value that cannot be encoded into a 500 that names the request.
func TestWriteJSON(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req = req.WithContext(withRequestID(req.Context(), "rid-1"))

	rec := httptest.NewRecorder()
	writeJSON(rec, req, http.StatusOK, map[string]int{"n": 1})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"n\":1}\n" {
		t.Errorf("ok write = %d %q", rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, req, http.StatusOK, map[string]float64{"n": math.NaN()})
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("500 body not JSON: %v (%s)", err, rec.Body)
	}
	if rec.Code != http.StatusInternalServerError || e["request_id"] != "rid-1" || e["error"] == "" {
		t.Errorf("unencodable value = %d %v, want 500 with the request ID", rec.Code, e)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("500 Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
}

// TestTrailingBodyDataIs400: every POST route reads exactly one JSON value;
// anything after it is a client error, not something to ignore.
func TestTrailingBodyDataIs400(t *testing.T) {
	h := newMux(freshSystem(t), muxConfig{})
	const q = `select G from ANNODA-GML.Gene G where exists G.Annotation`
	for route, body := range map[string]string{
		"/api/ask":     `{"include":["GO"]}`,
		"/api/query":   `{"query":"` + q + `"}`,
		"/api/explain": `{"query":"` + q + `"}`,
		"/api/batch":   `{"queries":["` + q + `"]}`,
		"/api/refresh": `{"source":"GO"}`,
	} {
		if rec := postJSON(t, h, route, body+" \n"); rec.Code != http.StatusOK {
			t.Errorf("%s with trailing whitespace = %d, want 200: %s", route, rec.Code, rec.Body)
		}
		for _, junk := range []string{" junk", ` {"again":1}`, " }"} {
			rec := postJSON(t, h, route, body+junk)
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusBadRequest || err != nil || e["error"] == "" {
				t.Errorf("%s with trailing %q = %d %s, want a JSON 400", route, junk, rec.Code, rec.Body)
			}
		}
	}
}
