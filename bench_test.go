// Benchmarks, one (or more) per paper artifact, mirroring the experiments
// that cmd/annoda-bench prints. The package doubles as the integration test
// surface at module root. See EXPERIMENTS.md for the mapping to the paper's
// tables and figures.
package main_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/capability"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fedsql"
	"repro/internal/feed"
	"repro/internal/gml"
	"repro/internal/lorel"
	"repro/internal/match"
	"repro/internal/mediator"
	"repro/internal/navigate"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/snapstore"
	"repro/internal/sources/locuslink"
	"repro/internal/warehouse"
	"repro/internal/wrapper"
)

func benchCorpus(genes int) *datagen.Corpus {
	cfg := datagen.DefaultConfig()
	cfg.Genes = genes
	return datagen.Generate(cfg)
}

func benchSystem(b *testing.B, genes int) *core.System {
	b.Helper()
	sys, err := core.New(benchCorpus(genes), mediator.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// --- E1: Figure 2/3 — OML export of LocusLink -----------------------------

func BenchmarkE1_OMLExport(b *testing.B) {
	sys := benchSystem(b, 500)
	w := sys.Registry.Get("LocusLink")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Refresh()
		if _, err := w.Model(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_Figure3Text(b *testing.B) {
	sys := benchSystem(b, 100)
	w := sys.Registry.Get("LocusLink")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wrapper.FragmentText(w, i%100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: Figure 4 — GML construction ---------------------------------------

func BenchmarkE2_GMLBuild(b *testing.B) {
	sys := benchSystem(b, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gml.Build(sys.Registry, match.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2_GMLMaterialize(b *testing.B) {
	sys := benchSystem(b, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Global.Materialize(sys.Registry); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: §4.1 — the paper's Lorel query ------------------------------------

func BenchmarkE3_LorelSelect(b *testing.B) {
	sys := benchSystem(b, 300)
	g, err := sys.Global.Materialize(sys.Registry)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := runLorel(g, `select X from ANNODA-GML.Source X where X.Name = "LocusLink"`)
		if err != nil {
			b.Fatal(err)
		}
		if res != 1 {
			b.Fatalf("%d answers", res)
		}
	}
}

// --- E4: Figure 5(a) — question compilation --------------------------------

func BenchmarkE4_QuestionCompile(b *testing.B) {
	sys := benchSystem(b, 100)
	q := core.Figure5bQuestion()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ToLorel(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: Figure 5(b) — the integrated view, at three scales ----------------

func benchmarkE5(b *testing.B, genes int) {
	sys := benchSystem(b, genes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := sys.Ask(core.Figure5bQuestion())
		if err != nil {
			b.Fatal(err)
		}
		if len(v.Rows) == 0 {
			b.Fatal("empty view")
		}
	}
}

func BenchmarkE5_IntegratedView100(b *testing.B)  { benchmarkE5(b, 100) }
func BenchmarkE5_IntegratedView1000(b *testing.B) { benchmarkE5(b, 1000) }
func BenchmarkE5_IntegratedView5000(b *testing.B) { benchmarkE5(b, 5000) }

// --- E6: Figure 5(c) — object view and link chase ---------------------------

func BenchmarkE6_ObjectView(b *testing.B) {
	sys := benchSystem(b, 300)
	urls := make([]string, 0, 300)
	for i := range sys.Corpus.Genes {
		urls = append(urls, locuslink.SelfURL(sys.Corpus.Genes[i].LocusID))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ObjectView(urls[i%len(urls)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_LinkChase(b *testing.B) {
	sys := benchSystem(b, 300)
	var start string
	for i := range sys.Corpus.Genes {
		if len(sys.Corpus.Genes[i].GoTerms) > 0 {
			start = locuslink.SelfURL(sys.Corpus.Genes[i].LocusID)
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := navigate.NewSession(sys.Resolver)
		if _, err := s.Open(start); err != nil {
			b.Fatal(err)
		}
		if _, err := s.FollowAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Table 1 — per-system latency on the same question -----------------

func BenchmarkE7_ANNODA(b *testing.B) {
	sys := benchSystem(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Ask(core.Figure5bQuestion()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_GUSWarehouse(b *testing.B) {
	sys := benchSystem(b, 300)
	gus := warehouse.New(sys.Registry, sys.Global)
	if err := gus.Refresh(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gus.Figure5b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_DiscoveryLink(b *testing.B) {
	sys := benchSystem(b, 300)
	dl := fedsql.New(sys.Registry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dl.Figure5b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7_Hypertext(b *testing.B) {
	sys := benchSystem(b, 300)
	h := &navigate.Hypertext{LL: sys.LocusLink, GO: sys.GO, OM: sys.OMIM}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if syms, _ := h.AnswerFigure5b(); len(syms) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkE7_TableGeneration(b *testing.B) {
	c := benchCorpus(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.New(c, mediator.Options{})
		if err != nil {
			b.Fatal(err)
		}
		gus := warehouse.New(sys.Registry, sys.Global)
		if err := gus.Refresh(); err != nil {
			b.Fatal(err)
		}
		rows, err := capability.BuildTable(&capability.Fixture{
			ANNODA: sys, Kleisli: &capability.WrappedMultidb{System: sys},
			DL: fedsql.New(sys.Registry), GUS: gus,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 15 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// --- E8: optimizer ablation --------------------------------------------------

func benchmarkE8(b *testing.B, opts mediator.Options) {
	sys := benchSystem(b, 1000)
	m := mediator.New(sys.Registry, sys.Global, opts)
	query := `select G from ANNODA-GML.Gene G where G.Symbol like "A%" and exists G.Annotation and not exists G.Disease`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.QueryString(query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_AllOptimizations(b *testing.B) { benchmarkE8(b, mediator.Options{}) }
func BenchmarkE8_NoPushdown(b *testing.B)       { benchmarkE8(b, mediator.Options{DisablePushdown: true}) }
func BenchmarkE8_NoPruning(b *testing.B)        { benchmarkE8(b, mediator.Options{DisablePruning: true}) }
func BenchmarkE8_Sequential(b *testing.B)       { benchmarkE8(b, mediator.Options{Sequential: true}) }
func BenchmarkE8_NoOptimizations(b *testing.B) {
	benchmarkE8(b, mediator.Options{DisablePushdown: true, DisablePruning: true, Sequential: true})
}

// --- E9: matching algorithms ---------------------------------------------------

func benchmarkE9(b *testing.B, fn func(a, bb wrapper.Schema, o match.Options) match.Result) {
	sys := benchSystem(b, 200)
	schemas, err := sys.Registry.Schemas()
	if err != nil {
		b.Fatal(err)
	}
	concepts := gml.DomainConcepts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range schemas {
			for _, c := range concepts {
				fn(s, c.Schema(), match.Options{})
			}
		}
	}
}

func BenchmarkE9_Hungarian(b *testing.B) { benchmarkE9(b, match.Match) }
func BenchmarkE9_Greedy(b *testing.B)    { benchmarkE9(b, match.MatchGreedy) }
func BenchmarkE9_Stable(b *testing.B)    { benchmarkE9(b, match.MatchStable) }

// --- E10: architecture comparison covered by E7 benches; staleness here ------

func BenchmarkE10_WarehouseRefresh(b *testing.B) {
	sys := benchSystem(b, 500)
	gus := warehouse.New(sys.Registry, sys.Global)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gus.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: plugging in a source -------------------------------------------------

func BenchmarkE11_PlugSource(b *testing.B) {
	c := benchCorpus(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.New(c, mediator.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.PlugInProteins(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: large-scale batch annotation -------------------------------------------

func benchmarkE12(b *testing.B, workers int) {
	sys := benchSystem(b, 1000)
	var symbols []string
	for i := range sys.Corpus.Genes {
		symbols = append(symbols, sys.Corpus.Genes[i].Symbol)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sys.AnnotateBatch(symbols, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(symbols) {
			b.Fatal("short batch")
		}
	}
}

func BenchmarkE12_Batch1Worker(b *testing.B)  { benchmarkE12(b, 1) }
func BenchmarkE12_Batch8Workers(b *testing.B) { benchmarkE12(b, 8) }

// --- E13: result cache — repeated and concurrent questions -------------------

// benchmarkE13Repeat measures the hot path the server actually serves: the
// same biological question asked back-to-back. With the cache the fan-out
// runs once; without it every iteration pays fetch+fuse+eval.
func benchmarkE13Repeat(b *testing.B, opts mediator.Options) {
	sys, err := core.New(benchCorpus(1000), opts)
	if err != nil {
		b.Fatal(err)
	}
	q := core.Figure5bQuestion()
	if _, _, err := sys.Ask(q); err != nil { // warm (or prove) the path
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := sys.Ask(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(v.Rows) == 0 {
			b.Fatal("empty view")
		}
	}
}

func BenchmarkE13_RepeatedAskCached(b *testing.B) { benchmarkE13Repeat(b, mediator.Options{}) }
func BenchmarkE13_RepeatedAskUncached(b *testing.B) {
	benchmarkE13Repeat(b, mediator.Options{DisableCache: true})
}

// benchmarkE13Concurrent hammers one System from GOMAXPROCS goroutines with
// identical questions: singleflight collapses the herd onto one compute.
func benchmarkE13Concurrent(b *testing.B, opts mediator.Options) {
	sys, err := core.New(benchCorpus(1000), opts)
	if err != nil {
		b.Fatal(err)
	}
	q := core.Figure5bQuestion()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := sys.Ask(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE13_ConcurrentAskCached(b *testing.B) { benchmarkE13Concurrent(b, mediator.Options{}) }
func BenchmarkE13_ConcurrentAskUncached(b *testing.B) {
	benchmarkE13Concurrent(b, mediator.Options{DisableCache: true})
}

// BenchmarkE13_DistinctQuestionsCached cycles through several distinct
// questions so the benchmark exercises shard spread and LRU residency, not
// just one hot key.
func BenchmarkE13_DistinctQuestionsCached(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{})
	if err != nil {
		b.Fatal(err)
	}
	questions := []core.Question{
		{Include: []string{"GO"}, Exclude: []string{"OMIM"}},
		{Include: []string{"OMIM"}},
		{Include: []string{"GO", "OMIM"}, Combine: core.CombineAny},
		{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Symbol", Op: "like", Value: "A%"}}},
		{Exclude: []string{"GO"}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Ask(questions[i%len(questions)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: compiled query plans + fused-snapshot eval-only fast path ---------

// e14Query is a repeated-shape query over the fused graph: the paper's
// Figure 5(b) question in raw Lorel.
const e14Query = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

func e14Fused(b *testing.B, genes int) (*core.System, *oem.Graph) {
	b.Helper()
	sys := benchSystem(b, genes)
	g, _, err := sys.Manager.FusedGraph()
	if err != nil {
		b.Fatal(err)
	}
	return sys, g
}

// BenchmarkE14_RepeatShapeCompiled: compile once, evaluate many — the plan
// cache's steady state for a repeated query shape.
func BenchmarkE14_RepeatShapeCompiled(b *testing.B) {
	_, g := e14Fused(b, 1000)
	plan, err := lorel.Compile(lorel.MustParse(e14Query))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Eval(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14_RepeatShapeInterpreted: the compile-then-run shim — what
// every evaluation paid before plans existed.
func BenchmarkE14_RepeatShapeInterpreted(b *testing.B) {
	_, g := e14Fused(b, 1000)
	q := lorel.MustParse(e14Query)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lorel.Eval(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

// Selective variant: one-gene answer, so traversal and compilation dominate
// over answer construction.
func benchmarkE14Selective(b *testing.B, compiled bool) {
	sys, g := e14Fused(b, 1000)
	src := `select G.Symbol from ANNODA-GML.Gene G where G.Symbol = "` + sys.Corpus.Genes[0].Symbol + `"`
	q := lorel.MustParse(src)
	plan, err := lorel.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compiled {
			_, err = plan.Eval(g)
		} else {
			_, err = lorel.Eval(g, q)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14_SelectiveCompiled(b *testing.B)    { benchmarkE14Selective(b, true) }
func BenchmarkE14_SelectiveInterpreted(b *testing.B) { benchmarkE14Selective(b, false) }

// e14Distinct generates the i-th of 1024 distinct snapshot-safe questions:
// the base query plus a bit-selected set of structural conjuncts. None of
// the conjuncts is pushdown-eligible (complex or multi-step paths), so every
// question qualifies for the eval-only snapshot path.
func e14Distinct(i int) string {
	opts := [...]string{
		" and exists G.Annotation",
		" and exists G.Annotation.GoID",
		" and exists G.Annotation.Evidence",
		" and exists G.Annotation.Term",
		" and exists G.Annotation.Organism",
		" and exists G.Links",
		" and exists G.Links.GO",
		" and exists G.Links.OMIM",
		" and not exists G.Disease",
		" and not exists G.Disease.MimNumber",
	}
	var sb strings.Builder
	sb.WriteString(e14Query)
	for bit := 0; bit < len(opts); bit++ {
		if i&(1<<bit) != 0 {
			sb.WriteString(opts[bit])
		}
	}
	return sb.String()
}

// BenchmarkE14_DistinctQuestionsSnapshot: every iteration asks a question
// the result cache has never seen, over an unchanged source set — the
// snapshot fast path answers eval-only, sharing one fused graph.
func BenchmarkE14_DistinctQuestionsSnapshot(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{CacheSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := sys.Query(e14Distinct(i % 1024))
		if err != nil {
			b.Fatal(err)
		}
		if i < 1024 && !stats.SnapshotUsed {
			b.Fatal("distinct question missed the snapshot fast path")
		}
	}
}

// BenchmarkE14_DistinctQuestionsFullPipeline: the same distinct questions
// with the cache (and with it the snapshot path) disabled — every question
// pays fetch+fuse+eval, which is what every question cost before.
func BenchmarkE14_DistinctQuestionsFullPipeline(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{DisableCache: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Query(e14Distinct(i % 1024)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E15: incremental change feeds — refresh 1% of a source, then query -----

// e15Query is snapshot-safe (touches all three concepts, nothing pushed
// down) and selective in its select list, so the measured cycle is
// dominated by refresh absorption, not by answer materialization.
const e15Query = `select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// benchmarkE15 measures the cost of absorbing a small source update: each
// iteration edits 1% of LocusLink's records and then asks a snapshot-safe
// question. The delta path routes the refresh through RefreshSource — a
// structural diff, an in-place patch of the shared fused snapshot, and
// concept-scoped cache invalidation. The full path is the pre-delta
// behaviour: wrapper Refresh, whole-cache nuke, and a complete fetch+fuse
// rebuild on the next query.
func benchmarkE15(b *testing.B, genes int, deltaPath bool) {
	sys, err := core.New(benchCorpus(genes), mediator.Options{CacheSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	loci := make([]int, 0, genes/100)
	for i := range sys.Corpus.Genes {
		if len(loci) == genes/100 {
			break
		}
		loci = append(loci, sys.Corpus.Genes[i].LocusID)
	}
	if _, stats, err := sys.Query(e15Query); err != nil {
		b.Fatal(err)
	} else if !stats.SnapshotUsed {
		b.Fatal("warm query missed the snapshot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := fmt.Sprintf("revision %d", i)
		for _, id := range loci {
			if err := sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
				b.Fatal(err)
			}
		}
		if deltaPath {
			rr, err := sys.Manager.RefreshSource("LocusLink")
			if err != nil {
				b.Fatal(err)
			}
			if rr.FullRebuild || !rr.Patched {
				b.Fatalf("delta path not taken: %+v", rr)
			}
		} else {
			sys.Registry.Get("LocusLink").Refresh()
		}
		res, _, err := sys.Query(e15Query)
		if err != nil {
			b.Fatal(err)
		}
		if res.Size() == 0 {
			b.Fatal("empty answer")
		}
	}
}

func BenchmarkE15_DeltaRefresh1k(b *testing.B)  { benchmarkE15(b, 1000, true) }
func BenchmarkE15_FullRefresh1k(b *testing.B)   { benchmarkE15(b, 1000, false) }
func BenchmarkE15_DeltaRefresh10k(b *testing.B) { benchmarkE15(b, 10000, true) }
func BenchmarkE15_FullRefresh10k(b *testing.B)  { benchmarkE15(b, 10000, false) }

// --- E16: lock-free snapshot epochs + parallel fusion + batch eval ----------

// e16Distinct generates the i-th of 1024 distinct snapshot-safe questions
// in the THEA profile: a selective symbol extraction plus bit-selected
// structural conjuncts, so evaluation is traversal-bound rather than
// answer-construction-bound.
func e16Distinct(i int) string {
	opts := [...]string{
		" and exists G.Annotation",
		" and exists G.Annotation.GoID",
		" and exists G.Annotation.Evidence",
		" and exists G.Annotation.Term",
		" and exists G.Annotation.Organism",
		" and exists G.Links",
		" and exists G.Links.GO",
		" and exists G.Links.OMIM",
		" and not exists G.Disease",
		" and not exists G.Disease.MimNumber",
	}
	var sb strings.Builder
	sb.WriteString(`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`)
	for bit := 0; bit < len(opts); bit++ {
		if i&(1<<bit) != 0 {
			sb.WriteString(opts[bit])
		}
	}
	return sb.String()
}

// e16Queries returns n distinct snapshot-safe questions.
func e16Queries(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = e16Distinct(i % 1024)
	}
	return out
}

// benchmarkE16ConcurrentEval isolates the snapshot read path: many
// goroutines evaluate compiled selective plans (traversal-heavy,
// one-gene answers, so graph reads dominate answer construction) against
// the shared fused graph. The epoch variant reads the frozen snapshot —
// no lock held, one atomic flag load per object access. The baseline
// variant reproduces the retired design: an unfrozen graph whose every
// Get takes the graph RWMutex, plus the shared snapshot read lock held
// across eval.
func benchmarkE16ConcurrentEval(b *testing.B, rwmutexBaseline bool) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{DisableCache: rwmutexBaseline})
	if err != nil {
		b.Fatal(err)
	}
	g, _, err := sys.Manager.FusedGraph()
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*lorel.Plan, 0, 256)
	for i := 0; i < 256; i++ {
		sym := sys.Corpus.Genes[i%len(sys.Corpus.Genes)].Symbol
		src := `select G.Symbol from ANNODA-GML.Gene G where G.Symbol = "` + sym +
			`" and exists G.Annotation`
		p, err := lorel.Compile(lorel.MustParse(src))
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p)
	}
	g.EnsureLabelIndex()
	var snapMu sync.RWMutex
	var n atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(n.Add(1)) % len(plans)
			if rwmutexBaseline {
				snapMu.RLock()
			}
			_, err := plans[i].Eval(g)
			if rwmutexBaseline {
				snapMu.RUnlock()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE16_ConcurrentEvalEpoch(b *testing.B) { benchmarkE16ConcurrentEval(b, false) }
func BenchmarkE16_ConcurrentEvalRWMutexBaseline(b *testing.B) {
	benchmarkE16ConcurrentEval(b, true)
}

// BenchmarkE16_ConcurrentDistinctQuestions: the end-to-end manager path
// under concurrent distinct questions with a deliberately tiny result
// cache, so nearly every request runs the lock-free epoch eval instead of
// being a cache hit.
func BenchmarkE16_ConcurrentDistinctQuestions(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{CacheSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sys.Query(e16Distinct(0)); err != nil { // warm the epoch
		b.Fatal(err)
	}
	var n atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(n.Add(1))
			if _, _, err := sys.Query(e16Distinct(i % 1024)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE16_QueriesUnderRefreshChurn: distinct snapshot questions while
// a background goroutine continuously edits LocusLink and publishes
// patched epochs. Under the retired RWMutex design every patch stalled
// every reader; with epochs the readers never block — compare ns/op
// against BenchmarkE16_ConcurrentDistinctQuestions (the churn-free
// variant).
func BenchmarkE16_QueriesUnderRefreshChurn(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{CacheSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sys.Query(e16Distinct(0)); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		r := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			r++
			id := sys.Corpus.Genes[r%len(sys.Corpus.Genes)].LocusID
			rev := fmt.Sprintf("churn %d", r)
			if err := sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
				b.Error(err)
				return
			}
			if _, err := sys.Manager.RefreshSource("LocusLink"); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	var n atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(n.Add(1))
			if _, _, err := sys.Query(e16Distinct(i % 1024)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-churnDone
}

// BenchmarkE16_AskBatch64: 64 distinct questions per iteration through the
// batch API — one pinned epoch, concurrent eval.
func BenchmarkE16_AskBatch64(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{CacheSize: 16, Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	queries := e16Queries(64)
	if _, _, err := sys.QueryBatch(queries[:1]); err != nil { // warm the epoch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answers, _, err := sys.QueryBatch(queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range answers {
			if a.Err != nil {
				b.Fatal(a.Err)
			}
		}
	}
}

// BenchmarkE16_SequentialAsks64: the same 64 questions answered one at a
// time — what a THEA-style analysis paid before the batch API.
func BenchmarkE16_SequentialAsks64(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{CacheSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	queries := e16Queries(64)
	if _, _, err := sys.Query(queries[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, _, err := sys.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchmarkE16ColdFuse builds the recorded fused snapshot from scratch
// each iteration — the cold-start and MaxDeltaFraction-fallback cost the
// parallel sharded fusion exists to cut.
func benchmarkE16ColdFuse(b *testing.B, genes int, sequentialFuse bool) {
	sys := benchSystem(b, genes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Workers is pinned so the parallel variant shards even when the
		// benchmark host caps GOMAXPROCS below the fan-out.
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{SequentialFuse: sequentialFuse, Workers: 8})
		g, _, err := m.FusedGraph()
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() == 0 {
			b.Fatal("empty fused graph")
		}
	}
}

func BenchmarkE16_ColdFuse10kSequential(b *testing.B) { benchmarkE16ColdFuse(b, 10000, true) }
func BenchmarkE16_ColdFuse10kParallel(b *testing.B)   { benchmarkE16ColdFuse(b, 10000, false) }

// runLorel evaluates a Lorel query on a graph and returns the answer size.
func runLorel(g *oem.Graph, src string) (int, string, error) {
	q, err := lorel.Parse(src)
	if err != nil {
		return 0, "", err
	}
	res, err := lorel.Eval(g, q)
	if err != nil {
		return 0, "", err
	}
	return res.Size(), oem.TextString(res.Graph, "answer", res.Answer), nil
}

// --- E17: durable snapshot store — warm restore vs cold fetch+fuse ----------

// benchE17Prime checkpoints a system's fused world into dir and returns
// the (registry, global model) pair a "restarted process" reuses.
func benchE17Prime(b *testing.B, genes int, dir string) *core.System {
	b.Helper()
	sys := benchSystem(b, genes)
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Manager.SaveSnapshot(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchmarkE17ColdFuse is the restart baseline: every iteration plays a
// freshly booted process without a snapshot store — wrapper models rebuild
// from native storage and the mediator fetches, translates and fuses the
// whole world before the first query can be answered.
func benchmarkE17ColdFuse(b *testing.B, genes int) {
	sys := benchSystem(b, genes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, w := range sys.Registry.All() {
			w.Refresh() // a restarted process holds no cached models
		}
		b.StartTimer()
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{})
		g, _, err := m.FusedGraph()
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() == 0 {
			b.Fatal("empty fused graph")
		}
	}
}

// benchmarkE17Restore plays the same restart against a primed data dir:
// open the store, decode the newest checkpoint, replay its (empty) WAL,
// publish — no wrapper fetch, no fusion.
func benchmarkE17Restore(b *testing.B, genes int) {
	dir := b.TempDir()
	sys := benchE17Prime(b, genes, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{})
		st, err := snapstore.Open(dir, snapstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
			b.Fatal(err)
		}
		rr, err := m.LoadSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		if !rr.Restored {
			b.Fatalf("restore fell back: %+v", rr)
		}
		g, _, err := m.FusedGraph()
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() == 0 {
			b.Fatal("empty restored graph")
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17_ColdFuse1k(b *testing.B)  { benchmarkE17ColdFuse(b, 1000) }
func BenchmarkE17_Restore1k(b *testing.B)   { benchmarkE17Restore(b, 1000) }
func BenchmarkE17_ColdFuse10k(b *testing.B) { benchmarkE17ColdFuse(b, 10000) }
func BenchmarkE17_Restore10k(b *testing.B)  { benchmarkE17Restore(b, 10000) }

// BenchmarkE17_DeltaRefreshPersisted1k measures the persistence tax on the
// E15 refresh cycle: each iteration edits 1% of LocusLink, routes the
// refresh through RefreshSource — which (with persistence on) also encodes
// the ChangeSet and appends it to the delta WAL — and then asks the E15
// question. BenchmarkE15_DeltaRefresh1k is the identical cycle without
// persistence; the difference is the WAL's cost.
func BenchmarkE17_DeltaRefreshPersisted1k(b *testing.B) {
	sys, err := core.New(benchCorpus(1000), mediator.Options{CacheSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	st, err := snapstore.Open(b.TempDir(), snapstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	// A huge record bound keeps auto-checkpointing out of the steady-state
	// measurement (checkpoint cost is measured separately below).
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{EveryRecords: 1 << 30, EveryBytes: 1 << 50}); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Manager.SaveSnapshot(); err != nil {
		b.Fatal(err)
	}
	loci := make([]int, 0, 10)
	for i := range sys.Corpus.Genes {
		if len(loci) == 10 {
			break
		}
		loci = append(loci, sys.Corpus.Genes[i].LocusID)
	}
	if _, stats, err := sys.Query(e15Query); err != nil {
		b.Fatal(err)
	} else if !stats.SnapshotUsed {
		b.Fatal("warm query missed the snapshot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := fmt.Sprintf("revision %d", i)
		for _, id := range loci {
			if err := sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
				b.Fatal(err)
			}
		}
		rr, err := sys.Manager.RefreshSource("LocusLink")
		if err != nil {
			b.Fatal(err)
		}
		if rr.FullRebuild || !rr.Patched {
			b.Fatalf("delta path not taken: %+v", rr)
		}
		res, _, err := sys.Query(e15Query)
		if err != nil {
			b.Fatal(err)
		}
		if res.Size() == 0 {
			b.Fatal("empty answer")
		}
	}
	b.StopTimer()
	if n := sys.Manager.Metrics().Value("annoda_wal_records_appended_total"); n < int64(b.N) {
		b.Fatalf("WAL appends %d < iterations %d", n, b.N)
	}
}

// BenchmarkE17_RestoreReplay32_1k restores a store whose checkpoint is 32
// refreshes old: checkpoint decode plus 32 ChangeSet replays through the
// patch path — the worst case the default auto-checkpoint policy permits
// is twice this.
func BenchmarkE17_RestoreReplay32_1k(b *testing.B) {
	dir := b.TempDir()
	sys, err := core.New(benchCorpus(1000), mediator.Options{CacheSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{EveryRecords: 1 << 30, EveryBytes: 1 << 50}); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Manager.SaveSnapshot(); err != nil {
		b.Fatal(err)
	}
	loci := make([]int, 0, 10)
	for i := range sys.Corpus.Genes {
		if len(loci) == 10 {
			break
		}
		loci = append(loci, sys.Corpus.Genes[i].LocusID)
	}
	for r := 0; r < 32; r++ {
		rev := fmt.Sprintf("churn %d", r)
		for _, id := range loci {
			if err := sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
				b.Fatal(err)
			}
		}
		rr, err := sys.Manager.RefreshSource("LocusLink")
		if err != nil {
			b.Fatal(err)
		}
		if !rr.Patched {
			b.Fatalf("churn refresh %d did not patch: %+v", r, rr)
		}
	}
	if n := sys.Manager.Metrics().Value("annoda_wal_records_appended_total"); n != 32 {
		b.Fatalf("WAL has %d records, want 32", n)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{CacheSize: 4096})
		st, err := snapstore.Open(dir, snapstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
			b.Fatal(err)
		}
		rr, err := m.LoadSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		if !rr.Restored || rr.WALReplayed != 32 {
			b.Fatalf("restore: %+v, want 32 replayed records", rr)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17_CheckpointWrite isolates the cost of one checkpoint:
// encode the fused world and write it durably (fsync + atomic rename).
func BenchmarkE17_CheckpointWrite1k(b *testing.B) {
	sys := benchSystem(b, 1000)
	st, err := snapstore.Open(b.TempDir(), snapstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		b.Fatal(err)
	}
	if _, _, err := sys.Manager.FusedGraph(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Manager.SaveSnapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E18: live change feeds — fan-out, standing queries vs polling --------

// benchmarkE18Fanout: one hub publish delivered to every subscriber, each
// drained by its own consumer goroutine through the Notify/Next protocol.
// Measures the full publish-to-consumed path, not just the enqueue.
func benchmarkE18Fanout(b *testing.B, subs int) {
	h := feed.NewHub()
	var consumed atomic.Int64
	var wg sync.WaitGroup
	subscribers := make([]*feed.Subscriber, subs)
	for i := range subscribers {
		s := h.Subscribe(feed.Options{Buffer: 256})
		subscribers[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for {
					if _, ok := s.Next(); !ok {
						break
					}
					consumed.Add(1)
				}
				if s.Closed() {
					return
				}
				<-s.Notify()
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Publish(feed.Event{
			Kind: feed.KindChange, Source: "GO",
			Concepts: []string{"Annotation"}, Fingerprint: uint64(i + 1),
		}, nil)
		for target := int64(subs) * int64(i+1); consumed.Load() < target; {
			runtime.Gosched()
			target = int64(subs) * int64(i+1)
		}
	}
	b.StopTimer()
	for _, s := range subscribers {
		s.Close()
	}
	wg.Wait()
}

func BenchmarkE18_NotifyFanout100(b *testing.B)  { benchmarkE18Fanout(b, 100) }
func BenchmarkE18_NotifyFanout1000(b *testing.B) { benchmarkE18Fanout(b, 1000) }

// e18AnswerLocus finds a gene inside the watched query's answer set (GO
// annotations, no disease, description survives fusion), so a description
// edit changes the pushed answer every round.
func e18AnswerLocus(b *testing.B, c *datagen.Corpus) int {
	b.Helper()
	diseased := map[int]bool{}
	for _, d := range c.Diseases {
		for _, l := range d.Loci {
			diseased[l] = true
		}
	}
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 && !diseased[c.Genes[i].LocusID] && !c.Genes[i].LLMissingDesc {
			return c.Genes[i].LocusID
		}
	}
	b.Fatal("corpus has no annotated, disease-free gene")
	return -1
}

const e18Query = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// BenchmarkE18_StandingQueryPush: per answer-changing refresh, the standing
// query re-evaluates inline and pushes the fresh canonical answer into the
// subscriber queue — the server-side cost of keeping one watcher current.
func BenchmarkE18_StandingQueryPush(b *testing.B) {
	sys := benchSystem(b, 1000)
	if _, _, err := sys.Query(e18Query); err != nil {
		b.Fatal(err)
	}
	sub, err := sys.Manager.SubscribeChanges(feed.Options{Concepts: []string{"NoSuchConcept"}})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	sq, err := sys.Manager.AddStandingQuery(sub, e18Query)
	if err != nil {
		b.Fatal(err)
	}
	defer sq.Cancel()
	if _, ok := sub.Next(); !ok {
		b.Fatal("no baseline answer")
	}
	id := e18AnswerLocus(b, sys.Corpus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := fmt.Sprintf("standing rev %d", i)
		if err := sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Manager.RefreshSource("LocusLink"); err != nil {
			b.Fatal(err)
		}
		ev, ok := sub.Next()
		if !ok || ev.Kind != feed.KindAnswer {
			b.Fatalf("round %d: no pushed answer (ok=%v kind=%v)", i, ok, ev.Kind)
		}
	}
}

// BenchmarkE18_PollAfterRefresh: the client-side alternative to a standing
// query — after every refresh, re-run the query and re-canonicalize to see
// whether the answer changed. Same edits, same refreshes, same output.
func BenchmarkE18_PollAfterRefresh(b *testing.B) {
	sys := benchSystem(b, 1000)
	if _, _, err := sys.Query(e18Query); err != nil {
		b.Fatal(err)
	}
	id := e18AnswerLocus(b, sys.Corpus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := fmt.Sprintf("poll rev %d", i)
		if err := sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Manager.RefreshSource("LocusLink"); err != nil {
			b.Fatal(err)
		}
		res, _, err := sys.Query(e18Query)
		if err != nil {
			b.Fatal(err)
		}
		if oem.CanonicalText(res.Graph, "answer", res.Answer) == "" {
			b.Fatal("empty canonical answer")
		}
	}
}

// --- E19: observability overhead — traced vs untraced Ask --------------------

// benchmarkE19 measures the per-request cost of the obs layer on the
// cached Ask hot path. opts either carries a live obs bundle (op + stage
// histograms observed, a trace allocated and retired per request at the
// given sampling rate) or none (every obs call site takes the nil fast
// path). The acceptance bar is <5% on E13/E16-style workloads at default
// sampling.
func benchmarkE19(b *testing.B, opts mediator.Options) {
	sys, err := core.New(benchCorpus(1000), opts)
	if err != nil {
		b.Fatal(err)
	}
	q := core.Figure5bQuestion()
	if _, _, err := sys.Ask(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Ask(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE19_AskUntraced(b *testing.B) { benchmarkE19(b, mediator.Options{}) }
func BenchmarkE19_AskTraced(b *testing.B) {
	benchmarkE19(b, mediator.Options{Obs: obs.New(obs.Config{})})
}
func BenchmarkE19_AskTracedSampled16(b *testing.B) {
	benchmarkE19(b, mediator.Options{Obs: obs.New(obs.Config{SampleEvery: 16})})
}

// benchmarkE19Concurrent is the E16-shaped variant: GOMAXPROCS goroutines
// hammering one System, traced vs not — the trace ring claim and the
// histogram observations are the only added shared-state writes.
func benchmarkE19Concurrent(b *testing.B, opts mediator.Options) {
	sys, err := core.New(benchCorpus(1000), opts)
	if err != nil {
		b.Fatal(err)
	}
	q := core.Figure5bQuestion()
	if _, _, err := sys.Ask(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := sys.Ask(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE19_ConcurrentAskUntraced(b *testing.B) {
	benchmarkE19Concurrent(b, mediator.Options{})
}
func BenchmarkE19_ConcurrentAskTraced(b *testing.B) {
	benchmarkE19Concurrent(b, mediator.Options{Obs: obs.New(obs.Config{})})
}

// --- E20: introspection overhead — EXPLAIN/ANALYZE and counted eval ----------

const e20Query = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// BenchmarkE20_AskAnalyzeOff: the cached-Ask hot path with the instrumented
// evaluator in the binary but no counts attached — every note site takes the
// nil fast path. This is the number the <5% introspection-overhead bar is
// measured against.
func BenchmarkE20_AskAnalyzeOff(b *testing.B) {
	sys := benchSystem(b, 1000)
	q := core.Figure5bQuestion()
	if _, _, err := sys.Ask(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.Ask(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkE20Eval evaluates one compiled plan against the fused graph with
// and without a live EvalCounts — isolating the per-stage counting cost from
// everything else EXPLAIN ANALYZE does.
func benchmarkE20Eval(b *testing.B, counted bool) {
	sys := benchSystem(b, 1000)
	fused, _, err := sys.Manager.FusedGraph()
	if err != nil {
		b.Fatal(err)
	}
	q, err := lorel.Parse(e20Query)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := lorel.Compile(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ec *lorel.EvalCounts
		if counted {
			ec = &lorel.EvalCounts{}
		}
		if _, err := plan.EvalMasked(fused, nil, ec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE20_EvalPlain(b *testing.B)   { benchmarkE20Eval(b, false) }
func BenchmarkE20_EvalCounted(b *testing.B) { benchmarkE20Eval(b, true) }

// benchmarkE20Explain measures the explain surface itself: plan-only (parse,
// analyze, plan, classify, render) and analyze (plus a counted execution
// against the pinned snapshot epoch).
func benchmarkE20Explain(b *testing.B, analyze bool) {
	sys := benchSystem(b, 1000)
	if _, _, err := sys.Query(e20Query); err != nil { // build the snapshot epoch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Manager.ExplainString(e20Query, analyze); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE20_ExplainPlanOnly(b *testing.B) { benchmarkE20Explain(b, false) }
func BenchmarkE20_ExplainAnalyze(b *testing.B)  { benchmarkE20Explain(b, true) }
