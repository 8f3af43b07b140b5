package mediator

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/oem"
	"repro/internal/sources/protdb"
	"repro/internal/wrapper"
)

// The route-equivalence property: a query's answer must not depend on how it
// was routed. This suite pins it for the gate fused.World.MaskFor opened —
// a query that names only some concepts is evaluated on the pinned
// epoch under a mask instead of on a private pruned fusion — by generating
// queries from a small grammar and comparing oem.CanonicalText across the
// masked epoch, the per-query pipeline with and without pushdown, a
// delta-patched epoch against a rebuilt one, and a restored one.
//
// Tier-1 runs a small seed count; `make route-equiv` passes
// -route-equiv-long for more seeds, denser query samples and a larger corpus,
// under -race.
var routeEquivLong = flag.Bool("route-equiv-long", false,
	"route-equivalence property test: more seeds, more of the generated queries, and a 2.5k-gene corpus")

// fedManager is mutManager plus ProtDB plugged in: the four-concept
// federation annoda-server serves, every source reloading from the live
// corpus on Refresh.
func fedManager(t testing.TB, c *datagen.Corpus, opts Options) *Manager {
	t.Helper()
	m := mutManager(t, c, opts)
	plugProt(t, m, c)
	return m
}

// plugProt plugs a ProtDB that reloads from the live corpus into m.
func plugProt(t testing.TB, m *Manager, c *datagen.Corpus) {
	t.Helper()
	pw := &swapSource{name: "ProtDB", entity: "Protein", load: func() (*oem.Graph, error) {
		pd, err := protdb.Load(c)
		if err != nil {
			return nil, err
		}
		return wrapper.NewProtDB(pd).Model()
	}}
	if err := m.reg.Add(pw); err != nil {
		t.Fatal(err)
	}
	if _, err := m.gl.PlugIn(pw); err != nil {
		t.Fatal(err)
	}
}

// routeQuery is one generated query and the link concepts it names.
type routeQuery struct {
	src   string
	named int // how many of Annotation, Disease, Protein (and Gene) it names
}

// routeEquivQueries generates the grammar: projection × named subset of the
// link concepts × conjuncts on the optional attributes Description and
// Position, plus the direct (Gene-pruned) queries. Which conjunct form a
// combination gets is drawn from the seeded generator, so different seeds
// cover different corners; the combinations themselves are exhaustive.
func routeEquivQueries(r *datagen.RNG) []routeQuery {
	links := []string{"Annotation", "Disease", "Protein"}
	projections := []string{
		"G", "G.Symbol", "G.Organism", "G.Position", "G.Description", // whole gene, reconciled labels
		"G.GeneID", "G.Alias", "G.WebLink", "G.Links", // non-reconciled labels
	}
	optional := []string{
		`exists G.Description`, `not exists G.Description`, `G.Description like "%a%"`,
		`exists G.Position`, `not exists G.Position`, `G.Position like "1%"`, `G.Position != "1p1"`,
	}
	pick := func(list []string) string { return list[r.Intn(len(list))] }
	var out []routeQuery
	for subset := 0; subset < 1<<len(links); subset++ {
		var conj []string
		named := 1
		for i, c := range links {
			if subset&(1<<i) != 0 {
				named++
				conj = append(conj, pick([]string{"exists G." + c, "not exists G." + c}))
			}
		}
		for _, proj := range projections {
			cs := append([]string(nil), conj...)
			if r.Bool(0.7) {
				cs = append(cs, pick(optional))
			}
			src := "select " + proj + " from ANNODA-GML.Gene G"
			if len(cs) > 0 {
				glue := " and "
				if len(cs) > 1 && r.Bool(0.25) {
					glue = " or "
				}
				src += " where " + strings.Join(cs, glue)
			}
			out = append(out, routeQuery{src: src, named: named})
		}
	}
	// Two variables: the gene and one of its linked entities.
	for _, c := range links {
		v := c[:1]
		src := fmt.Sprintf("select G, %s from ANNODA-GML.Gene G, G.%s %s", v, c, v)
		if r.Bool(0.5) {
			src += " where " + pick(optional)
		}
		out = append(out, routeQuery{src: src, named: 2})
	}
	// Direct queries: Gene itself is pruned.
	for _, src := range []string{
		`select A from ANNODA-GML.Annotation A`,
		`select A from ANNODA-GML.Annotation A where A.Evidence = "IEA" or exists A.Organism`,
		`select A.Term from ANNODA-GML.Annotation A`,
		`select D from ANNODA-GML.Disease D`,
		`select D from ANNODA-GML.Disease D where exists D.Position and not exists D.Inheritance`,
		`select D.Title from ANNODA-GML.Disease D where D.Position like "1%"`,
		`select P from ANNODA-GML.Protein P`,
		`select P.Accession from ANNODA-GML.Protein P where P.Description like "%a%"`,
	} {
		out = append(out, routeQuery{src: src, named: strings.Count(src, "ANNODA-GML.")})
	}
	return out
}

// sampleQueries keeps every k-th query (all of them when k <= 1).
func sampleQueries(qs []routeQuery, k int) []routeQuery {
	if k <= 1 {
		return qs
	}
	var out []routeQuery
	for i := 0; i < len(qs); i += k {
		out = append(out, qs[i])
	}
	return out
}

// routeAnswers answers every query on m and returns the canonical texts; when
// wantEpoch is set every query naming fewer than four concepts must have
// taken the snapshot route under a mask (the generated corpora are maskable,
// and none of the grammar's conjuncts is pushed down).
func routeAnswers(t *testing.T, m *Manager, qs []routeQuery, wantEpoch bool) []string {
	t.Helper()
	out := make([]string, len(qs))
	for i, rq := range qs {
		res, st, err := m.QueryString(rq.src)
		if err != nil {
			t.Fatalf("%s: %v", rq.src, err)
		}
		if wantEpoch && !st.CacheHit {
			if !st.SnapshotUsed {
				t.Errorf("%s: took the pipeline, want the masked epoch", rq.src)
			} else if want := 4 - rq.named; len(st.Masked) != want {
				t.Errorf("%s: masked %v, want %d concepts hidden", rq.src, st.Masked, want)
			}
		}
		out[i] = oem.CanonicalText(res.Graph, "answer", res.Answer)
	}
	return out
}

func assertSameAnswers(t *testing.T, what string, qs []routeQuery, got, want []string) {
	t.Helper()
	for i := range qs {
		if got[i] != want[i] {
			t.Errorf("%s: %s\n got: %s\nwant: %s", what, qs[i].src, clip(got[i]), clip(want[i]))
		}
	}
}

// editOnePercent changes the description of 1% of the genes (past the MDSM
// sampling window, see TestRefreshSourceGeneDelta) and takes LocusLink's
// description away from one described gene in ten of those — which turns
// it Protein-described wherever ProtDB has a record for it. LocusLink and
// ProtDB both derive from the gene list, so both change.
func editOnePercent(c *datagen.Corpus, tag string) {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	n := max(len(c.Genes)/100, 3)
	for k, i := 0, 40; k < n && i < len(c.Genes); i++ {
		g := &c.Genes[i]
		if g.LLMissingDesc {
			continue
		}
		g.Description = fmt.Sprintf("%s %d", tag, i)
		if k%10 == 0 {
			g.LLMissingDesc = true
		}
		k++
	}
}

func TestRouteEquivalence(t *testing.T) {
	type config struct {
		seed  uint64
		genes int
		every int // sample every k-th generated query
	}
	configs := []config{{seed: 11, genes: 250, every: 1}, {seed: 12, genes: 1000, every: 9}}
	if *routeEquivLong {
		configs = nil
		for seed := uint64(21); seed < 25; seed++ {
			configs = append(configs, config{seed, 250, 1})
		}
		configs = append(configs, config{31, 1000, 2}, config{32, 1000, 3}, config{33, 2500, 5})
	}
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("seed%d_genes%d", cfg.seed, cfg.genes), func(t *testing.T) {
			c := datagen.Generate(datagen.Config{
				Seed: cfg.seed, Genes: cfg.genes, GoTerms: cfg.genes / 4, Diseases: cfg.genes / 5,
				ConflictRate: 0.3, MissingRate: 0.15,
			})
			qs := sampleQueries(routeEquivQueries(datagen.NewRNG(cfg.seed)), cfg.every)
			// Workers: 4 so the epoch is built over 4 fusion shards even on
			// a one-core runner.
			dir := t.TempDir()
			live := persistManager(t, c, Options{Workers: 4}, dir, PersistPolicy{})
			plugProt(t, live, c)
			pipeline := fedManager(t, c, Options{DisableCache: true})
			plain := fedManager(t, c, Options{DisableCache: true, DisablePushdown: true})

			want := routeAnswers(t, plain, qs, false)
			assertSameAnswers(t, "pipeline vs no-pushdown pipeline", qs, routeAnswers(t, pipeline, qs, false), want)
			assertSameAnswers(t, "masked epoch vs pipeline", qs, routeAnswers(t, live, qs, true), want)

			// The same world after a 1% LocusLink + ProtDB delta: the patched
			// epoch against a rebuilt one and against the pipeline.
			editOnePercent(c, "route-equiv edit")
			for _, src := range []string{"LocusLink", "ProtDB"} {
				if rr := refresh(t, live, src); !rr.Patched {
					t.Fatalf("%s refresh was not patched: %+v", src, rr)
				}
				pipeline.reg.Get(src).Refresh()
				plain.reg.Get(src).Refresh()
			}
			want = routeAnswers(t, plain, qs, false)
			patched := routeAnswers(t, live, qs, true)
			assertSameAnswers(t, "patched epoch vs pipeline", qs, patched, want)
			assertSameAnswers(t, "rebuilt epoch vs pipeline", qs, routeAnswers(t, fedManager(t, c, Options{Workers: 4}), qs, true), want)

			// Save → restore: a fresh manager serving the restored epoch.
			if _, err := live.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			restored := persistManager(t, c, Options{Workers: 4}, dir, PersistPolicy{})
			plugProt(t, restored, c)
			mustRestore(t, restored)
			assertSameAnswers(t, "restored epoch vs pipeline", qs, routeAnswers(t, restored, qs, true), want)
			if n := metric(restored, "annoda_snapshot_misses_total"); n != 0 {
				t.Errorf("restored manager ran the pipeline %d times", n)
			}
		})
	}
}
