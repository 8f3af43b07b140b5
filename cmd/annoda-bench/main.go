// Command annoda-bench regenerates every table and figure of the ANNODA
// paper (and the quantitative experiments attached to them) from the live
// implementations in this repository. Run with no flags for everything, or
// -exp E5 for one experiment (E1..E20). See EXPERIMENTS.md for the index.
//
// -json FILE additionally writes the headline numbers of the experiments
// that ran as machine-readable JSON (the BENCH_N.json files committed at
// the repo root are produced this way).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E20) or 'all'")
	genes := flag.Int("genes", 1000, "corpus size (genes)")
	seed := flag.Uint64("seed", 20050405, "corpus seed")
	jsonOut := flag.String("json", "", "write headline numbers as JSON to this file")
	flag.Parse()

	cfg := datagen.DefaultConfig()
	cfg.Genes = *genes
	cfg.Seed = *seed
	c := datagen.Generate(cfg)
	sys, err := core.New(c, mediator.Options{})
	if err != nil {
		fatal(err)
	}

	runners := map[string]func(*datagen.Corpus, *core.System){
		"E1": e1, "E2": e2, "E3": e3, "E4": e4, "E5": e5, "E6": e6,
		"E7": e7, "E8": e8, "E9": e9, "E10": e10, "E11": e11, "E12": e12,
		"E13": e13, "E14": e14, "E15": e15, "E16": e16, "E17": e17, "E18": e18,
		"E19": e19, "E20": e20,
	}
	if *exp == "all" {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"} {
			banner(id)
			runners[id](c, sys)
		}
		writeHeadlines(*jsonOut, *genes, *seed)
		return
	}
	run, ok := runners[strings.ToUpper(*exp)]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	banner(strings.ToUpper(*exp))
	run(c, sys)
	writeHeadlines(*jsonOut, *genes, *seed)
}

// headlines collects the machine-readable numbers each runner records; the
// -json flag dumps it at the end of the run. Keys are experiment ids,
// values flat metric maps (durations in microseconds, marked by suffix).
var headlines = struct {
	sync.Mutex
	m map[string]map[string]any
}{m: map[string]map[string]any{}}

func record(exp, metric string, value any) {
	if d, ok := value.(time.Duration); ok {
		value = d.Microseconds()
	}
	headlines.Lock()
	defer headlines.Unlock()
	if headlines.m[exp] == nil {
		headlines.m[exp] = map[string]any{}
	}
	headlines.m[exp][metric] = value
}

func writeHeadlines(path string, genes int, seed uint64) {
	if path == "" {
		return
	}
	headlines.Lock()
	defer headlines.Unlock()
	out := struct {
		Genes       int                       `json:"genes"`
		Seed        uint64                    `json:"seed"`
		Experiments map[string]map[string]any `json:"experiments"`
	}{Genes: genes, Seed: seed, Experiments: headlines.m}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nheadline numbers written to %s\n", path)
}

func banner(id string) {
	fmt.Printf("\n================ %s ================\n", id)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "annoda-bench:", err)
	os.Exit(1)
}

// E1 — Figures 2/3: the ANNODA-OML model of one LocusLink record.
func e1(c *datagen.Corpus, sys *core.System) {
	w := sys.Registry.Get("LocusLink")
	text, err := wrapper.FragmentText(w, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Println("ANNODA-OML representation of the structure and contents of LocusLink (Figure 3):")
	fmt.Println(text)
	// Round trip proves the notation is a real serialization.
	if _, err := oem.DecodeText(strings.NewReader(text)); err != nil {
		fatal(err)
	}
	fmt.Println("round-trip decode: ok")
}

// E2 — Figure 4: the ANNODA-GML global model.
func e2(c *datagen.Corpus, sys *core.System) {
	t0 := obs.Now()
	g, err := sys.Global.Materialize(sys.Registry)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("materialized GML: %d objects in %v\n", g.Len(), obs.Since(t0).Round(time.Millisecond))
	fmt.Println("\nmapping module output (MDSM + transformation calls):")
	fmt.Print(sys.Global.Describe())
}

// E3 — §4.1: the paper's Lorel query and its answer object.
func e3(c *datagen.Corpus, sys *core.System) {
	g, err := sys.Global.Materialize(sys.Registry)
	if err != nil {
		fatal(err)
	}
	q := `select X from ANNODA-GML.Source X where X.Name = "LocusLink"`
	fmt.Println("query:", q)
	res, err := lorel.Eval(g, lorel.MustParse(q))
	if err != nil {
		fatal(err)
	}
	xs := res.Graph.Children(res.Answer, "X")
	fmt.Printf("answer object %s with %d X edge(s); children of X:\n", res.Answer, len(xs))
	for _, x := range xs {
		for _, label := range []string{"SourceID", "Name", "Content", "Structure"} {
			child := res.Graph.Child(x, label)
			fmt.Printf("    %-10s %s %s\n", label, child, res.Graph.KindOf(child))
		}
	}
}

// E4 — Figure 5(a): question-to-Lorel compilation.
func e4(c *datagen.Corpus, sys *core.System) {
	qs := []core.Question{
		core.Figure5bQuestion(),
		{Include: []string{"GO", "OMIM"}, Combine: core.CombineAll},
		{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Organism", Op: "=", Value: "Homo sapiens"}}},
	}
	for _, q := range qs {
		l, err := sys.ToLorel(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("question %+v\n  -> %s\n", q, l)
	}
}

// E5 — Figure 5(b): the integrated view for the paper's running example.
func e5(c *datagen.Corpus, sys *core.System) {
	t0 := obs.Now()
	v, stats, err := sys.Ask(core.Figure5bQuestion())
	if err != nil {
		fatal(err)
	}
	elapsed := obs.Since(t0)
	out := v.Format()
	lines := strings.Split(out, "\n")
	head := lines
	if len(lines) > 14 {
		head = append(lines[:12], fmt.Sprintf("  ... (%d more rows)", len(v.Rows)-10), lines[len(lines)-2])
	}
	fmt.Println(strings.Join(head, "\n"))
	fmt.Printf("ground truth: %d genes; view: %d rows; agree=%v\n",
		len(c.GenesWithGoButNotOMIM()), len(v.Rows), len(c.GenesWithGoButNotOMIM()) == len(v.Rows))
	fmt.Printf("latency %v\n%s", elapsed.Round(time.Millisecond), stats.String())
}

// E6 — Figure 5(c): individual object view + link chase.
func e6(c *datagen.Corpus, sys *core.System) {
	var gene *datagen.Gene
	for i := range c.Genes {
		if len(c.Genes[i].GoTerms) > 0 && len(c.Genes[i].Diseases) > 0 {
			gene = &c.Genes[i]
			break
		}
	}
	if gene == nil {
		fmt.Println("no doubly-linked gene in corpus")
		return
	}
	url := locuslink.SelfURL(gene.LocusID)
	out, err := sys.ObjectView(url)
	if err != nil {
		fatal(err)
	}
	fmt.Println("individual object view for", url)
	fmt.Println(out)
	s := navigate.NewSession(sys.Resolver)
	if _, err := s.Open(url); err != nil {
		fatal(err)
	}
	targets, err := s.FollowAll()
	if err != nil {
		fatal(err)
	}
	bySource := map[string]int{}
	for _, t := range targets {
		bySource[t.Source]++
	}
	fmt.Printf("followed %d web-links (%d round trips): %v\n", len(targets), s.Trips, bySource)
}

// E7 — Table 1: the capability comparison, probed live.
func e7(c *datagen.Corpus, sys *core.System) {
	// A fresh system: E7's extensibility probe plugs ProtDB in.
	probeSys, err := core.New(c, mediator.Options{})
	if err != nil {
		fatal(err)
	}
	gus := warehouse.New(probeSys.Registry, probeSys.Global)
	if err := gus.Refresh(); err != nil {
		fatal(err)
	}
	rows, err := capability.BuildTable(&capability.Fixture{
		ANNODA:  probeSys,
		Kleisli: &capability.WrappedMultidb{System: probeSys},
		DL:      fedsql.New(probeSys.Registry),
		GUS:     gus,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(capability.Format(rows))
}

// E8 — optimizer ablation: pushdown / pruning / parallelism toggles.
func e8(c *datagen.Corpus, sys *core.System) {
	query := `select G from ANNODA-GML.Gene G where G.Symbol like "A%" and exists G.Annotation and not exists G.Disease`
	configs := []struct {
		name string
		opts mediator.Options
	}{
		{"all optimizations", mediator.Options{}},
		{"no pushdown", mediator.Options{DisablePushdown: true}},
		{"no pruning", mediator.Options{DisablePruning: true}},
		{"sequential", mediator.Options{Sequential: true}},
		{"none", mediator.Options{DisablePushdown: true, DisablePruning: true, Sequential: true}},
	}
	fmt.Printf("query: %s\n\n", query)
	fmt.Printf("%-20s %-10s %-12s %-12s %-10s %s\n", "config", "answers", "fetched", "kept", "sources", "latency")
	for _, cf := range configs {
		m := mediator.New(sys.Registry, sys.Global, cf.opts)
		t0 := obs.Now()
		res, stats, err := m.QueryString(query)
		if err != nil {
			fatal(err)
		}
		el := obs.Since(t0)
		fetched, kept := 0, 0
		for _, n := range stats.Fetched {
			fetched += n
		}
		for _, n := range stats.Kept {
			kept += n
		}
		fmt.Printf("%-20s %-10d %-12d %-12d %-10d %v\n",
			cf.name, res.Size(), fetched, kept, len(stats.SourcesQueried), el.Round(time.Microsecond))
	}
}

// E9 — MDSM matching: Hungarian vs greedy vs stable, accuracy and runtime.
func e9(c *datagen.Corpus, sys *core.System) {
	schemas, err := sys.Registry.Schemas()
	if err != nil {
		fatal(err)
	}
	concepts := gml.DomainConcepts()
	truth := map[string]map[string]string{
		"LocusLink": {"LocusID": "GeneID", "Symbol": "Symbol", "Organism": "Organism",
			"Description": "Description", "Position": "Position", "Alias": "Alias",
			"Links": "Links", "WebLink": "WebLink"},
		"GO": {"GeneSymbol": "Symbol", "Organism": "Organism", "GoID": "GoID",
			"Evidence": "Evidence", "Term": "Term"},
		"OMIM": {"MimNumber": "MimNumber", "Title": "Title", "GeneSymbol": "Symbol",
			"Locus": "GeneID", "CytoPosition": "Position", "Inheritance": "Inheritance",
			"WebLink": "WebLink"},
	}
	conceptFor := map[string]string{"LocusLink": "Gene", "GO": "Annotation", "OMIM": "Disease"}
	fmt.Printf("%-10s %-10s %-7s %-7s %-7s %s\n", "source", "matcher", "prec", "recall", "F1", "time")
	for _, s := range schemas {
		var conceptSchema wrapper.Schema
		for _, co := range concepts {
			if co.Name == conceptFor[s.Source] {
				conceptSchema = co.Schema()
			}
		}
		for _, m := range []struct {
			name string
			fn   func(a, b wrapper.Schema, o match.Options) match.Result
		}{
			{"hungarian", match.Match},
			{"greedy", match.MatchGreedy},
			{"stable", match.MatchStable},
		} {
			t0 := obs.Now()
			var res match.Result
			for i := 0; i < 200; i++ {
				res = m.fn(s, conceptSchema, match.Options{})
			}
			el := obs.Since(t0) / 200
			p, r, f1 := match.Evaluate(res, truth[s.Source])
			fmt.Printf("%-10s %-10s %-7.3f %-7.3f %-7.3f %v\n", s.Source, m.name, p, r, f1, el)
		}
	}
}

// E10 — the four architectures answer the same question.
func e10(c *datagen.Corpus, sys *core.System) {
	fmt.Println("question: genes annotated in GO but not associated with an OMIM disease")
	want := len(c.GenesWithGoButNotOMIM())
	fmt.Printf("ground truth: %d genes\n\n", want)
	fmt.Printf("%-22s %-8s %-10s %-28s %s\n", "architecture", "answers", "latency", "freshness", "notes")

	// ANNODA (federated, mediated).
	t0 := obs.Now()
	v, _, err := sys.Ask(core.Figure5bQuestion())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-22s %-8d %-10v %-28s %s\n", "ANNODA (federated)", len(v.Rows),
		obs.Since(t0).Round(time.Millisecond), "always fresh", "one global query, reconciled")

	// GUS-style warehouse.
	gus := warehouse.New(sys.Registry, sys.Global)
	tLoad := obs.Now()
	if err := gus.Refresh(); err != nil {
		fatal(err)
	}
	loadTime := obs.Since(tLoad)
	t1 := obs.Now()
	syms, err := gus.Figure5b()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-22s %-8d %-10v %-28s %s\n", "GUS (warehouse)", len(syms),
		obs.Since(t1).Round(time.Millisecond),
		fmt.Sprintf("stale until refresh (%v)", loadTime.Round(time.Millisecond)),
		"fast local SQL after ETL")

	// DiscoveryLink-style federation.
	dl := fedsql.New(sys.Registry)
	t2 := obs.Now()
	dlSyms, err := dl.Figure5b()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-22s %-8d %-10v %-28s %s\n", "DiscoveryLink (SQL)", len(dlSyms),
		obs.Since(t2).Round(time.Millisecond), "fresh per query", "user writes SQL + client anti-join")

	// Hypertext navigation.
	h := &navigate.Hypertext{LL: sys.LocusLink, GO: sys.GO, OM: sys.OMIM}
	t3 := obs.Now()
	hSyms, trips := h.AnswerFigure5b()
	fmt.Printf("%-22s %-8d %-10v %-28s %s\n", "Hypertext (Entrez)", len(hSyms),
		obs.Since(t3).Round(time.Millisecond), "fresh per page",
		fmt.Sprintf("%d link round-trips, no reconciliation", trips))
}

// E11 — plugging a new source in at runtime.
func e11(c *datagen.Corpus, sys *core.System) {
	fresh, err := core.New(c, mediator.Options{})
	if err != nil {
		fatal(err)
	}
	t0 := obs.Now()
	if err := fresh.PlugInProteins(); err != nil {
		fatal(err)
	}
	plugTime := obs.Since(t0)
	m := fresh.Global.MappingFor("ProtDB")
	fmt.Printf("plugged ProtDB in %v; mapped to concept %s with %d rules:\n",
		plugTime.Round(time.Millisecond), m.Concept, len(m.Rules))
	for _, r := range m.Rules {
		fmt.Printf("  %-12s <- %-4s  %s (score %.3f)\n", r.Global, r.Local, r.Transform, r.Score)
	}
	v, _, err := fresh.Ask(core.Question{Include: []string{"ProtDB"}})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("genes with protein records: %d\n", len(v.Rows))
}

// E13 — result cache and concurrency ablation: the same questions served
// repeatedly, sequentially and concurrently, with and without the sharded
// result cache. The cached/uncached ratio is the headline speedup.
func e13(c *datagen.Corpus, sys *core.System) {
	questions := []core.Question{
		core.Figure5bQuestion(),
		{Include: []string{"OMIM"}},
		{Include: []string{"GO", "OMIM"}, Combine: core.CombineAny},
		{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Symbol", Op: "like", Value: "A%"}}},
	}
	const rounds = 25

	type config struct {
		name string
		opts mediator.Options
	}
	configs := []config{
		{"cached", mediator.Options{}},
		{"uncached", mediator.Options{DisableCache: true}},
	}

	fmt.Println("workload: each of", len(questions), "distinct questions asked", rounds, "times")
	fmt.Printf("\n-- sequential --\n%-10s %-12s %-14s %s\n", "config", "total", "per-question", "cache")
	seq := map[string]time.Duration{}
	for _, cf := range configs {
		s, err := core.New(c, cf.opts)
		if err != nil {
			fatal(err)
		}
		t0 := obs.Now()
		n := 0
		for r := 0; r < rounds; r++ {
			for _, q := range questions {
				if _, _, err := s.Ask(q); err != nil {
					fatal(err)
				}
				n++
			}
		}
		el := obs.Since(t0)
		seq[cf.name] = el
		cacheCol := "disabled"
		if reg := s.Manager.Metrics(); !cf.opts.DisableCache {
			cacheCol = fmt.Sprintf("hits=%d misses=%d", reg.Value("annoda_cache_hits_total"), reg.Value("annoda_cache_misses_total"))
		}
		fmt.Printf("%-10s %-12v %-14v %s\n", cf.name, el.Round(time.Millisecond),
			(el / time.Duration(n)).Round(time.Microsecond), cacheCol)
	}
	if seq["cached"] > 0 {
		ratio := float64(seq["uncached"]) / float64(seq["cached"])
		fmt.Printf("sequential speedup (uncached/cached): %.1fx\n", ratio)
		record("E13", "sequential_speedup_x", ratio)
	}

	fmt.Printf("\n-- concurrent (%d goroutines) --\n%-10s %-12s %-14s %s\n",
		8, "config", "total", "per-question", "cache")
	conc := map[string]time.Duration{}
	for _, cf := range configs {
		s, err := core.New(c, cf.opts)
		if err != nil {
			fatal(err)
		}
		var wg sync.WaitGroup
		t0 := obs.Now()
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if _, _, err := s.Ask(questions[(g+r)%len(questions)]); err != nil {
						fatal(err)
					}
				}
			}(g)
		}
		wg.Wait()
		el := obs.Since(t0)
		conc[cf.name] = el
		n := 8 * rounds
		cacheCol := "disabled"
		if reg := s.Manager.Metrics(); !cf.opts.DisableCache {
			cacheCol = fmt.Sprintf("hits=%d misses=%d shared=%d", reg.Value("annoda_cache_hits_total"),
				reg.Value("annoda_cache_misses_total"), reg.Value("annoda_cache_shared_total"))
		}
		fmt.Printf("%-10s %-12v %-14v %s\n", cf.name, el.Round(time.Millisecond),
			(el / time.Duration(n)).Round(time.Microsecond), cacheCol)
	}
	if conc["cached"] > 0 {
		ratio := float64(conc["uncached"]) / float64(conc["cached"])
		fmt.Printf("concurrent speedup (uncached/cached): %.1fx\n", ratio)
		record("E13", "concurrent_speedup_x", ratio)
	}
}

// E14 — compiled query plans and the fused-snapshot eval-only fast path:
// repeated-shape evaluation with a reused plan vs per-call compilation, and
// distinct questions answered eval-only against one shared fused graph vs
// paying fetch+fuse per question.
func e14(c *datagen.Corpus, sys *core.System) {
	const query = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`
	g, _, err := sys.Manager.FusedGraph()
	if err != nil {
		fatal(err)
	}
	const rounds = 25

	plan, err := lorel.Compile(lorel.MustParse(query))
	if err != nil {
		fatal(err)
	}
	t0 := obs.Now()
	for i := 0; i < rounds; i++ {
		if _, err := plan.Eval(g); err != nil {
			fatal(err)
		}
	}
	compiled := obs.Since(t0) / rounds

	q := lorel.MustParse(query)
	t1 := obs.Now()
	for i := 0; i < rounds; i++ {
		if _, err := lorel.Eval(g, q); err != nil {
			fatal(err)
		}
	}
	interpreted := obs.Since(t1) / rounds

	fmt.Println("repeated-shape eval over the fused graph (plan reuse vs per-call compile):")
	fmt.Printf("  %-22s %v/eval\n", "compiled (plan reuse)", compiled.Round(time.Microsecond))
	fmt.Printf("  %-22s %v/eval\n", "compile-then-run", interpreted.Round(time.Microsecond))

	// Distinct questions over an unchanged source set: the snapshot path
	// shares one fused graph; the ablation recomputes fetch+fuse per ask.
	variants := []string{
		query,
		query + " and exists G.Annotation.GoID",
		query + " and exists G.Annotation.Evidence",
		query + " and exists G.Links",
		query + " and exists G.Annotation.Term and exists G.Links.GO",
	}
	fmt.Printf("\ndistinct questions, unchanged sources (%d distinct):\n", len(variants))
	for _, cf := range []struct {
		name string
		opts mediator.Options
	}{
		{"snapshot (eval-only)", mediator.Options{}},
		{"full pipeline", mediator.Options{DisableCache: true}},
	} {
		s, err := core.New(c, cf.opts)
		if err != nil {
			fatal(err)
		}
		t := obs.Now()
		for _, v := range variants {
			if _, _, err := s.Query(v); err != nil {
				fatal(err)
			}
		}
		el := obs.Since(t)
		line := fmt.Sprintf("  %-22s %v total, %v/question", cf.name,
			el.Round(time.Millisecond), (el / time.Duration(len(variants))).Round(time.Microsecond))
		if reg := s.Manager.Metrics(); !cf.opts.DisableCache {
			line += fmt.Sprintf("  (snapshot hits=%d misses=%d)", reg.Value("annoda_snapshot_hits_total"), reg.Value("annoda_snapshot_misses_total"))
		}
		fmt.Println(line)
	}
}

// E15 — incremental change feeds: 1% of LocusLink changes, then a query.
// The delta path absorbs the refresh through Manager.RefreshSource (diff
// against the snapshot's recorded hashes, in-place patch, concept-scoped
// invalidation); the baseline takes the pre-delta route (wrapper Refresh,
// cache nuke, full fetch+fuse rebuild). Both systems receive the same
// native-storage edits, and the baseline's full rebuilds are the ground
// truth the delta answers are checked against.
func e15(c *datagen.Corpus, sys *core.System) {
	const query = `select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`
	const rounds = 10
	pct := len(c.Genes) / 100
	if pct < 1 {
		pct = 1
	}
	mkSys := func() *core.System {
		s, err := core.New(c, mediator.Options{CacheSize: 4096})
		if err != nil {
			fatal(err)
		}
		return s
	}
	deltaSys, fullSys := mkSys(), mkSys()
	for _, s := range []*core.System{deltaSys, fullSys} {
		if _, _, err := s.Query(query); err != nil {
			fatal(err)
		}
	}
	loci := make([]int, 0, pct)
	for i := range c.Genes {
		if len(loci) == pct {
			break
		}
		loci = append(loci, c.Genes[i].LocusID)
	}

	var deltaTime, fullTime time.Duration
	agree := true
	for r := 0; r < rounds; r++ {
		rev := fmt.Sprintf("revision %d", r)
		for _, s := range []*core.System{deltaSys, fullSys} {
			for _, id := range loci {
				if err := s.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
					fatal(err)
				}
			}
		}
		t0 := obs.Now()
		rr, err := deltaSys.Manager.RefreshSource("LocusLink")
		if err != nil {
			fatal(err)
		}
		resD, _, err := deltaSys.Query(query)
		if err != nil {
			fatal(err)
		}
		deltaTime += obs.Since(t0)
		if rr.FullRebuild || !rr.Patched {
			fatal(fmt.Errorf("delta path not taken: %+v", rr))
		}

		t1 := obs.Now()
		fullSys.Registry.Get("LocusLink").Refresh()
		resF, _, err := fullSys.Query(query)
		if err != nil {
			fatal(err)
		}
		fullTime += obs.Since(t1)

		got := oem.CanonicalText(resD.Graph, "answer", resD.Answer)
		want := oem.CanonicalText(resF.Graph, "answer", resF.Answer)
		if got != want {
			agree = false
		}
	}
	fmt.Printf("workload: %d rounds of (edit %d of %d LocusLink records, refresh, query)\n\n",
		rounds, pct, len(c.Genes))
	fmt.Printf("%-28s %-14s %s\n", "path", "per-round", "total")
	fmt.Printf("%-28s %-14v %v\n", "delta (RefreshSource)",
		(deltaTime / rounds).Round(time.Microsecond), deltaTime.Round(time.Millisecond))
	fmt.Printf("%-28s %-14v %v\n", "full fetch+fuse (Refresh)",
		(fullTime / rounds).Round(time.Microsecond), fullTime.Round(time.Millisecond))
	if deltaTime > 0 {
		fmt.Printf("speedup (full/delta): %.1fx\n", float64(fullTime)/float64(deltaTime))
		record("E15", "refresh_speedup_x", float64(fullTime)/float64(deltaTime))
		record("E15", "delta_per_round_us", deltaTime/rounds)
		record("E15", "full_per_round_us", fullTime/rounds)
	}
	fmt.Printf("answers agree with full-rebuild ground truth: %v\n", agree)
	reg := deltaSys.Manager.Metrics()
	fmt.Printf("delta counters: applied=%d entities=%d full-rebuilds=%d selective-invalidations=%d\n",
		reg.Value("annoda_deltas_applied_total"), reg.Value("annoda_entities_patched_total"),
		reg.Value("annoda_full_rebuilds_total"), reg.Value("annoda_selective_invalidations_total"))
}

// E12 — large-scale batch annotation.
func e12(c *datagen.Corpus, sys *core.System) {
	var symbols []string
	for i := range c.Genes {
		symbols = append(symbols, c.Genes[i].Symbol)
	}
	// Repeat to reach a 10k-symbol batch regardless of corpus size.
	for len(symbols) < 10000 {
		symbols = append(symbols, symbols...)
	}
	symbols = symbols[:10000]
	for _, workers := range []int{1, 4, 8} {
		t0 := obs.Now()
		results, err := sys.AnnotateBatch(symbols, workers)
		if err != nil {
			fatal(err)
		}
		el := obs.Since(t0)
		okCount := 0
		for _, r := range results {
			if r.Err == nil {
				okCount++
			}
		}
		fmt.Printf("batch of %d symbols, %d workers: %v (%.0f genes/s), %d annotated\n",
			len(symbols), workers, el.Round(time.Millisecond),
			float64(len(symbols))/el.Seconds(), okCount)
	}
	sort.Strings(symbols) // keep deterministic footprint for repeated runs
}

// E16 — lock-free snapshot epochs, parallel sharded fusion, batch eval.
// Three measurements: (1) concurrent distinct snapshot questions with and
// without continuous refresh churn — under the retired RWMutex design
// every patch stalled every reader, with epochs readers never block;
// (2) a 64-question batch through AskBatch (one pinned epoch, concurrent
// eval) vs the same questions asked one at a time; (3) a cold recorded
// fusion, sequential vs gene-key-sharded parallel.
func e16(c *datagen.Corpus, sys *core.System) {
	const goroutines = 8
	const perG = 40
	distinct := func(i int) string {
		opts := [...]string{
			" and exists G.Annotation", " and exists G.Annotation.GoID",
			" and exists G.Annotation.Evidence", " and exists G.Links",
			" and exists G.Links.GO", " and not exists G.Disease.MimNumber",
		}
		q := `select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`
		for bit := 0; bit < len(opts); bit++ {
			if i&(1<<bit) != 0 {
				q += opts[bit]
			}
		}
		return q
	}
	mkSys := func() *core.System {
		s, err := core.New(c, mediator.Options{CacheSize: 16, Workers: goroutines})
		if err != nil {
			fatal(err)
		}
		return s
	}

	// (1) Concurrent distinct questions, churn-free then under refresh churn.
	concurrentRun := func(s *core.System, churn bool) time.Duration {
		if _, _, err := s.Query(distinct(0)); err != nil {
			fatal(err)
		}
		stop := make(chan struct{})
		var churnWG sync.WaitGroup
		refreshes := 0
		if churn {
			churnWG.Add(1)
			go func() {
				defer churnWG.Done()
				r := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					r++
					id := s.Corpus.Genes[r%len(s.Corpus.Genes)].LocusID
					rev := fmt.Sprintf("churn %d", r)
					if err := s.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
						fatal(err)
					}
					if _, err := s.Manager.RefreshSource("LocusLink"); err != nil {
						fatal(err)
					}
					refreshes++
				}
			}()
		}
		var wg sync.WaitGroup
		t0 := obs.Now()
		for gID := 0; gID < goroutines; gID++ {
			wg.Add(1)
			go func(gID int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					if _, _, err := s.Query(distinct((gID*perG + i) % 64)); err != nil {
						fatal(err)
					}
				}
			}(gID)
		}
		wg.Wait()
		el := obs.Since(t0)
		close(stop)
		churnWG.Wait()
		if churn {
			fmt.Printf("  (refreshes absorbed during the run: %d)\n", refreshes)
		}
		return el
	}
	total := goroutines * perG
	fmt.Printf("concurrent distinct questions, %d goroutines x %d questions:\n", goroutines, perG)
	quiet := concurrentRun(mkSys(), false)
	fmt.Printf("  %-26s %v total, %v/question (%.0f q/s)\n", "epochs, quiescent sources",
		quiet.Round(time.Millisecond), (quiet / time.Duration(total)).Round(time.Microsecond),
		float64(total)/quiet.Seconds())
	churned := concurrentRun(mkSys(), true)
	fmt.Printf("  %-26s %v total, %v/question (%.0f q/s)\n", "epochs, refresh churn",
		churned.Round(time.Millisecond), (churned / time.Duration(total)).Round(time.Microsecond),
		float64(total)/churned.Seconds())
	record("E16", "quiescent_qps", float64(total)/quiet.Seconds())
	record("E16", "churn_qps", float64(total)/churned.Seconds())

	// (2) Batch vs one-at-a-time.
	batchQ := make([]string, 64)
	for i := range batchQ {
		batchQ[i] = distinct(i % 64)
	}
	bs := mkSys()
	if _, _, err := bs.Query(batchQ[0]); err != nil {
		fatal(err)
	}
	t0 := obs.Now()
	answers, stats, err := bs.QueryBatch(batchQ)
	if err != nil {
		fatal(err)
	}
	batchTime := obs.Since(t0)
	for _, a := range answers {
		if a.Err != nil {
			fatal(a.Err)
		}
	}
	ss := mkSys()
	if _, _, err := ss.Query(batchQ[0]); err != nil {
		fatal(err)
	}
	t1 := obs.Now()
	for _, q := range batchQ {
		if _, _, err := ss.Query(q); err != nil {
			fatal(err)
		}
	}
	seqTime := obs.Since(t1)
	fmt.Printf("\n%d-question batch (one pinned epoch):\n", len(batchQ))
	fmt.Printf("  %-26s %v total, %v/question\n", "AskBatch (concurrent)",
		batchTime.Round(time.Millisecond), (batchTime / time.Duration(len(batchQ))).Round(time.Microsecond))
	fmt.Printf("  %-26s %v total, %v/question\n", "one Query at a time",
		seqTime.Round(time.Millisecond), (seqTime / time.Duration(len(batchQ))).Round(time.Microsecond))
	fmt.Printf("  aggregate stats: %s", indent(stats.String()))

	// (3) Cold recorded fusion, sequential vs sharded parallel.
	fuseOnce := func(sequential bool) time.Duration {
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{SequentialFuse: sequential, Workers: goroutines})
		t := obs.Now()
		if _, _, err := m.FusedGraph(); err != nil {
			fatal(err)
		}
		return obs.Since(t)
	}
	fmt.Printf("\ncold recorded fusion at %d genes:\n", len(c.Genes))
	seqFuse := fuseOnce(true)
	parFuse := fuseOnce(false)
	fmt.Printf("  %-26s %v\n", "sequential", seqFuse.Round(time.Millisecond))
	fmt.Printf("  %-26s %v (%d shards)\n", "parallel (gene-key shards)", parFuse.Round(time.Millisecond), goroutines)
	if parFuse > 0 {
		fmt.Printf("  speedup (seq/par): %.2fx\n", float64(seqFuse)/float64(parFuse))
	}
	reg := bs.Manager.Metrics()
	fmt.Printf("\nepoch counters (batch system): published=%d pins=%d\n",
		reg.Value("annoda_epochs_published_total"), reg.Value("annoda_epoch_pins_total"))
}

func indent(s string) string {
	return strings.ReplaceAll(s, "\n", "\n    ")
}

// E17 — the durable snapshot store: warm restore vs cold fetch+fuse, plus
// the WAL's cost under refresh churn.
func e17(c *datagen.Corpus, sys *core.System) {
	const rounds = 3
	dir, err := os.MkdirTemp("", "annoda-snapstore-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	// Prime: fuse once, checkpoint into the store.
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		fatal(err)
	}
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		fatal(err)
	}
	save, err := sys.Manager.SaveSnapshot()
	if err != nil {
		fatal(err)
	}
	if err := st.Close(); err != nil {
		fatal(err)
	}

	// Cold restarts: rebuilt wrapper models + full fetch+fuse.
	var coldTime time.Duration
	for r := 0; r < rounds; r++ {
		for _, w := range sys.Registry.All() {
			w.Refresh()
		}
		t0 := obs.Now()
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{})
		if _, _, err := m.FusedGraph(); err != nil {
			fatal(err)
		}
		coldTime += obs.Since(t0)
	}

	// Warm restarts: decode the checkpoint, replay the (empty) WAL.
	var warmTime time.Duration
	var restored *mediator.RestoreResult
	var warmWorld string
	for r := 0; r < rounds; r++ {
		t0 := obs.Now()
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{})
		st, err := snapstore.Open(dir, snapstore.Options{})
		if err != nil {
			fatal(err)
		}
		if err := m.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
			fatal(err)
		}
		rr, err := m.LoadSnapshot()
		if err != nil {
			fatal(err)
		}
		if !rr.Restored {
			fatal(fmt.Errorf("restore fell back: %+v", rr))
		}
		warmTime += obs.Since(t0)
		restored = rr
		if r == 0 {
			g, _, err := m.FusedGraph()
			if err != nil {
				fatal(err)
			}
			warmWorld = oem.CanonicalText(g, "ANNODA-GML", g.Root("ANNODA-GML"))
		}
		st.Close()
	}
	// Parity: the restored world is byte-identical to a cold fusion.
	plain := mediator.New(sys.Registry, sys.Global, mediator.Options{})
	g, _, err := plain.FusedGraph()
	if err != nil {
		fatal(err)
	}
	coldWorld := oem.CanonicalText(g, "ANNODA-GML", g.Root("ANNODA-GML"))

	fmt.Printf("corpus: %d genes; checkpoint seq %d, %d bytes (written in %v)\n\n",
		len(c.Genes), save.Seq, save.Bytes, save.Took.Round(time.Millisecond))
	fmt.Printf("%-34s %v\n", "cold restart (fetch+fuse):", (coldTime / rounds).Round(time.Microsecond))
	fmt.Printf("%-34s %v\n", "warm restart (restore-from-disk):", (warmTime / rounds).Round(time.Microsecond))
	if warmTime > 0 {
		fmt.Printf("speedup (cold/warm): %.1fx\n", float64(coldTime)/float64(warmTime))
		record("E17", "restore_speedup_x", float64(coldTime)/float64(warmTime))
		record("E17", "cold_restart_us", coldTime/rounds)
		record("E17", "warm_restart_us", warmTime/rounds)
	}
	fmt.Printf("restored: %d objects, %d genes, %d WAL records replayed\n",
		restored.Objects, restored.Genes, restored.WALReplayed)
	fmt.Printf("restored world byte-identical to cold fusion: %v\n", warmWorld == coldWorld)
}

// E18 — live change feeds. Three measurements: (1) hub publish fan-out to
// 100 and 1000 draining subscribers (publish-to-consumed, not enqueue);
// (2) a standing query kept current by inline re-evaluation on each
// answer-changing refresh, vs (3) the polling client it replaces, which
// re-runs the query and re-canonicalizes after every refresh. The per-round
// cost is comparable by construction when every change touches the query —
// the feed's wins are zero poll-interval latency, nothing re-evaluated when
// the changed concepts don't intersect the query, and sub-millisecond
// notification fan-out.
func e18(c *datagen.Corpus, sys *core.System) {
	// (1) Fan-out: one change event delivered to every subscriber.
	fanout := func(subs, events int) time.Duration {
		h := feed.NewHub()
		var consumed atomic.Int64
		var wg sync.WaitGroup
		all := make([]*feed.Subscriber, subs)
		for i := range all {
			s := h.Subscribe(feed.Options{Buffer: 256})
			all[i] = s
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
		t0 := obs.Now()
		for i := 0; i < events; i++ {
			h.Publish(feed.Event{
				Kind: feed.KindChange, Source: "GO",
				Concepts: []string{"Annotation"}, Fingerprint: uint64(i + 1),
			}, nil)
			for consumed.Load() < int64(subs)*int64(i+1) {
				runtime.Gosched()
			}
		}
		el := obs.Since(t0)
		for _, s := range all {
			s.Close()
		}
		wg.Wait()
		return el
	}
	const events = 200
	fmt.Printf("notification fan-out, %d change events, publish-to-consumed:\n", events)
	for _, subs := range []int{100, 1000} {
		el := fanout(subs, events)
		per := el / time.Duration(events)
		fmt.Printf("  %5d subscribers: %v/event (%.0f deliveries/s)\n",
			subs, per.Round(time.Microsecond), float64(subs)*float64(events)/el.Seconds())
		record("E18", fmt.Sprintf("fanout_%d_per_event_us", subs), per)
	}

	// (2)/(3) Standing query vs poll, identical answer-changing edits.
	const query = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`
	const rounds = 10
	answerLocus := func() int {
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
		fatal(fmt.Errorf("corpus has no annotated, disease-free gene"))
		return -1
	}
	mkSys := func() *core.System {
		s, err := core.New(c, mediator.Options{})
		if err != nil {
			fatal(err)
		}
		if _, _, err := s.Query(query); err != nil {
			fatal(err)
		}
		return s
	}

	standSys := mkSys()
	sub, err := standSys.Manager.SubscribeChanges(feed.Options{Concepts: []string{"NoSuchConcept"}})
	if err != nil {
		fatal(err)
	}
	defer sub.Close()
	sq, err := standSys.Manager.AddStandingQuery(sub, query)
	if err != nil {
		fatal(err)
	}
	defer sq.Cancel()
	if _, ok := sub.Next(); !ok {
		fatal(fmt.Errorf("no baseline answer pushed"))
	}
	id := answerLocus()
	var standTime time.Duration
	pushes := 0
	for r := 0; r < rounds; r++ {
		rev := fmt.Sprintf("e18 standing %d", r)
		if err := standSys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
			fatal(err)
		}
		t0 := obs.Now()
		if _, err := standSys.Manager.RefreshSource("LocusLink"); err != nil {
			fatal(err)
		}
		for {
			ev, ok := sub.Next()
			if !ok {
				break
			}
			if ev.Kind == feed.KindAnswer {
				pushes++
			}
		}
		standTime += obs.Since(t0)
	}

	pollSys := mkSys()
	var pollTime time.Duration
	for r := 0; r < rounds; r++ {
		rev := fmt.Sprintf("e18 poll %d", r)
		if err := pollSys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
			fatal(err)
		}
		t0 := obs.Now()
		if _, err := pollSys.Manager.RefreshSource("LocusLink"); err != nil {
			fatal(err)
		}
		res, _, err := pollSys.Query(query)
		if err != nil {
			fatal(err)
		}
		if oem.CanonicalText(res.Graph, "answer", res.Answer) == "" {
			fatal(fmt.Errorf("empty canonical answer"))
		}
		pollTime += obs.Since(t0)
	}

	fmt.Printf("\nkeeping one watcher current over %d answer-changing refreshes:\n", rounds)
	fmt.Printf("  %-34s %v/round (%d answers pushed)\n", "standing query (inline re-eval):",
		(standTime / rounds).Round(time.Microsecond), pushes)
	fmt.Printf("  %-34s %v/round\n", "poll (refresh + re-query + diff):",
		(pollTime / rounds).Round(time.Microsecond))
	record("E18", "standing_per_round_us", standTime/rounds)
	record("E18", "poll_per_round_us", pollTime/rounds)
	record("E18", "standing_answers_pushed", pushes)
}

// E19 — observability overhead: the identical cached-Ask workload served
// by a plain mediator and by one carrying a live obs bundle (op+stage
// histograms, per-request traces at the default 1-in-1 sampling, and a
// 1-in-16 sampled variant). The headline is the traced/untraced overhead
// in percent; the acceptance bar for the PR that introduced internal/obs
// was <5% at default sampling on the E13/E16-shaped workloads.
func e19(c *datagen.Corpus, sys *core.System) {
	questions := []core.Question{
		core.Figure5bQuestion(),
		{Include: []string{"OMIM"}},
		{Include: []string{"GO", "OMIM"}, Combine: core.CombineAny},
		{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Symbol", Op: "like", Value: "A%"}}},
	}
	const rounds = 50

	type config struct {
		name string
		opts mediator.Options
	}
	configs := []config{
		{"untraced", mediator.Options{}},
		{"traced", mediator.Options{Obs: obs.New(obs.Config{})}},
		{"sampled16", mediator.Options{Obs: obs.New(obs.Config{SampleEvery: 16})}},
	}

	// Overheads under ~5% drown in scheduler and GC noise on a loaded
	// machine, so each config runs several trials and the minimum counts:
	// the min is the run least disturbed by everything that is not the
	// workload. Systems are built up front and trials interleave across
	// configs so a slow patch of machine time cannot bias one config.
	const trials = 5
	systems := map[string]*core.System{}
	for _, cf := range configs {
		s, err := core.New(c, cf.opts)
		if err != nil {
			fatal(err)
		}
		for _, q := range questions { // warm the cache out of the timed region
			if _, _, err := s.Ask(q); err != nil {
				fatal(err)
			}
		}
		systems[cf.name] = s
	}

	fmt.Println("workload: each of", len(questions), "distinct questions asked", rounds,
		"times (cached), best of", trials, "trials")
	fmt.Printf("\n-- sequential --\n%-10s %-12s %s\n", "config", "best", "per-question")
	seq := map[string]time.Duration{}
	for t := 0; t < trials; t++ {
		for _, cf := range configs {
			s := systems[cf.name]
			runtime.GC()
			t0 := obs.Now()
			for r := 0; r < rounds; r++ {
				for _, q := range questions {
					if _, _, err := s.Ask(q); err != nil {
						fatal(err)
					}
				}
			}
			el := obs.Since(t0)
			if cur, ok := seq[cf.name]; !ok || el < cur {
				seq[cf.name] = el
			}
		}
	}
	for _, cf := range configs {
		el := seq[cf.name]
		n := rounds * len(questions)
		fmt.Printf("%-10s %-12v %v\n", cf.name, el.Round(time.Millisecond),
			(el / time.Duration(n)).Round(time.Microsecond))
		record("E19", cf.name+"_per_ask_us", el/time.Duration(n))
	}
	if seq["untraced"] > 0 {
		over := (float64(seq["traced"])/float64(seq["untraced"]) - 1) * 100
		fmt.Printf("tracing overhead at default sampling: %+.1f%%\n", over)
		record("E19", "sequential_overhead_pct", over)
	}

	const workers = 8
	fmt.Printf("\n-- concurrent (%d goroutines) --\n%-10s %-12s %s\n", workers, "config", "best", "per-question")
	conc := map[string]time.Duration{}
	for t := 0; t < trials; t++ {
		for _, cf := range configs {
			s := systems[cf.name]
			runtime.GC()
			var wg sync.WaitGroup
			t0 := obs.Now()
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						if _, _, err := s.Ask(questions[(g+r)%len(questions)]); err != nil {
							fatal(err)
						}
					}
				}(g)
			}
			wg.Wait()
			el := obs.Since(t0)
			if cur, ok := conc[cf.name]; !ok || el < cur {
				conc[cf.name] = el
			}
		}
	}
	for _, cf := range configs {
		el := conc[cf.name]
		n := workers * rounds
		fmt.Printf("%-10s %-12v %v\n", cf.name, el.Round(time.Millisecond),
			(el / time.Duration(n)).Round(time.Microsecond))
		record("E19", cf.name+"_concurrent_per_ask_us", el/time.Duration(n))
	}
	if conc["untraced"] > 0 {
		over := (float64(conc["traced"])/float64(conc["untraced"]) - 1) * 100
		fmt.Printf("tracing overhead at default sampling: %+.1f%%\n", over)
		record("E19", "concurrent_overhead_pct", over)
	}
}

// E20 — introspection overhead: what the EXPLAIN/ANALYZE machinery costs.
// Three questions, each isolated: (1) the cached-Ask hot path with the
// instrumented evaluator in the binary but analyze off (every counting site
// takes the nil fast path — the acceptance bar for the introspection PR was
// <5% over the pre-instrumentation numbers); (2) the same plan evaluated
// with and without a live counts struct, isolating the per-stage counting
// cost; (3) the explain surface itself, plan-only and analyze.
func e20(c *datagen.Corpus, sys *core.System) {
	const query = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`
	s, err := core.New(c, mediator.Options{})
	if err != nil {
		fatal(err)
	}
	ask := core.Figure5bQuestion()
	if _, _, err := s.Ask(ask); err != nil { // warm cache + snapshot epoch
		fatal(err)
	}
	if _, _, err := s.Query(query); err != nil {
		fatal(err)
	}
	fused, _, err := s.Manager.FusedGraph()
	if err != nil {
		fatal(err)
	}
	q, err := lorel.Parse(query)
	if err != nil {
		fatal(err)
	}
	plan, err := lorel.Compile(q)
	if err != nil {
		fatal(err)
	}

	// Small overheads drown in machine noise, so every measurement runs
	// several interleaved trials and the minimum counts (see e19).
	const trials = 5
	best := map[string]time.Duration{}
	measure := func(name string, rounds int, f func()) {
		runtime.GC()
		t0 := obs.Now()
		for r := 0; r < rounds; r++ {
			f()
		}
		el := obs.Since(t0) / time.Duration(rounds)
		if cur, ok := best[name]; !ok || el < cur {
			best[name] = el
		}
	}
	for t := 0; t < trials; t++ {
		measure("ask_analyze_off", 200, func() {
			if _, _, err := s.Ask(ask); err != nil {
				fatal(err)
			}
		})
		measure("eval_plain", 3, func() {
			if _, err := plan.EvalMasked(fused, nil, nil); err != nil {
				fatal(err)
			}
		})
		measure("eval_counted", 3, func() {
			if _, err := plan.EvalMasked(fused, nil, &lorel.EvalCounts{}); err != nil {
				fatal(err)
			}
		})
		measure("explain_plan_only", 200, func() {
			if _, err := s.Manager.ExplainString(query, false); err != nil {
				fatal(err)
			}
		})
		measure("explain_analyze", 3, func() {
			if _, err := s.Manager.ExplainString(query, true); err != nil {
				fatal(err)
			}
		})
	}

	fmt.Printf("%-18s %s\n", "measurement", "best per-op")
	for _, name := range []string{"ask_analyze_off", "eval_plain", "eval_counted", "explain_plan_only", "explain_analyze"} {
		fmt.Printf("%-18s %v\n", name, best[name].Round(time.Microsecond))
		record("E20", name+"_per_us", best[name])
	}
	counting := (float64(best["eval_counted"])/float64(best["eval_plain"]) - 1) * 100
	fmt.Printf("per-stage counting overhead (counted vs plain eval): %+.1f%%\n", counting)
	record("E20", "counting_overhead_pct", counting)
	analyze := (float64(best["explain_analyze"])/float64(best["eval_plain"]) - 1) * 100
	fmt.Printf("analyze overhead over a bare eval (pin + counts + stats): %+.1f%%\n", analyze)
	record("E20", "analyze_overhead_pct", analyze)
}
