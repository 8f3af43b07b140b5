package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
)

// discard is a ResponseWriter that drops the body, so the benchmarks below
// time the handler tree and not a recorder's buffer growth.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.status = code }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// demoSystem is the system main starts: the 1k-gene demo corpus with ProtDB
// plugged in.
func demoSystem(tb testing.TB) *core.System {
	tb.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Genes = 1000
	sys, err := core.New(datagen.Generate(cfg), mediator.Options{Obs: quietObs()})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.PlugInProteins(); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// benchmarkHit times one cache hit through the whole handler tree newMux
// builds (instrument, recover, timeout, route, mediator, render, write) at
// the 1k-gene demo scale the server starts with, ProtDB plugged in as main
// does. The entry is served three times first, so its rendering is memoized
// before the clock starts.
func benchmarkHit(b *testing.B, newRequest func() *http.Request) {
	h := newMux(demoSystem(b), muxConfig{})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, newRequest())
		if rec.Code != http.StatusOK || rec.Body.Len() < 1024 {
			b.Fatalf("warm-up request = %d, %d bytes", rec.Code, rec.Body.Len())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discard{h: http.Header{}}
		h.ServeHTTP(w, newRequest())
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkAPIAskHit: the Figure 5(b) question, POSTed as the form does.
func BenchmarkAPIAskHit(b *testing.B) {
	benchmarkHit(b, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/api/ask", strings.NewReader(`{"include":["GO"],"exclude":["OMIM"]}`))
	})
}

// BenchmarkAPIQueryHit: a raw Lorel query, whole gene subtrees as OEM text.
func BenchmarkAPIQueryHit(b *testing.B) {
	target := "/api/query?q=" + url.QueryEscape(`select G from ANNODA-GML.Gene G where G.Symbol like "A%"`)
	benchmarkHit(b, func() *http.Request { return httptest.NewRequest(http.MethodGet, target, nil) })
}

// wholeGeneQuery selects whole genes over all four concepts: at 1k genes
// 337 genes, ~51k objects, a 3 MB member.
const wholeGeneQuery = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease and exists G.Protein`

// BenchmarkAnswerEncode builds the /api/query member of a whole-gene answer
// at 1k genes from the evaluated Result, as a miss does: Figure 3 text, then
// JSON quoting into reused scratch. The query is distinct_query's
// lorel_epoch_full shape without its extra conjuncts, every concept named.
// member_bytes/op is the member's size.
func BenchmarkAnswerEncode(b *testing.B) {
	res, _, err := demoSystem(b).Query(wholeGeneQuery)
	if err != nil {
		b.Fatal(err)
	}
	var member []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if member, err = textMember(member[:0], res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(member)), "member_bytes/op")
}
