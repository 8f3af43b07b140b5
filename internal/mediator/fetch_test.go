package mediator

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/match"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/wrapper"
)

// flakyWrapper wraps a real wrapper and fails Model() on demand — after
// registration and mapping succeeded, so only the query-time fetch sees
// the failure.
type flakyWrapper struct {
	wrapper.Wrapper
	fail atomic.Bool
}

func (f *flakyWrapper) Model() (*oem.Graph, error) {
	if f.fail.Load() {
		return nil, fmt.Errorf("injected %s outage", f.Name())
	}
	return f.Wrapper.Model()
}

// flakyManager builds a manager whose GO and OMIM wrappers can be made to
// fail, returning the manager and the two failure switches in
// registration order.
func flakyManager(t testing.TB, c *datagen.Corpus, opts Options) (*Manager, *flakyWrapper, *flakyWrapper) {
	t.Helper()
	ll, err := locuslink.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	gos, err := geneontology.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	om, err := omim.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	fgo := &flakyWrapper{Wrapper: wrapper.NewGeneOntology(gos)}
	fom := &flakyWrapper{Wrapper: wrapper.NewOMIM(om)}
	reg := wrapper.NewRegistry()
	for _, w := range []wrapper.Wrapper{wrapper.NewLocusLink(ll), fgo, fom} {
		if err := reg.Add(w); err != nil {
			t.Fatal(err)
		}
	}
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(reg, gl, opts), fgo, fom
}

const allSourcesQ = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// TestFetchErrorsAggregated: when several sources fail in one fan-out,
// the reported error must name every failing source (errors.Join), never
// an arbitrary schedule-dependent one — and never a healthy source. Later
// rounds exercise the breaker path too: once a source's breaker opens,
// the refusal still names the source, so multi-source outage reports stay
// complete through the whole outage, identically for both executors.
func TestFetchErrorsAggregated(t *testing.T) {
	c := corpus()
	for name, workers := range map[string]int{"parallel": 4, "sequential": 1} {
		t.Run(name, func(t *testing.T) {
			m, fgo, fom := flakyManager(t, c, Options{Workers: workers, DisableCache: true})
			fgo.fail.Store(true)
			fom.fail.Store(true)
			for round := 0; round < 8; round++ {
				_, _, err := m.QueryString(allSourcesQ)
				if err == nil {
					t.Fatal("query succeeded with two sources down")
				}
				msg := err.Error()
				if !strings.Contains(msg, "GO") {
					t.Fatalf("round %d: GO's failure missing from %q", round, err)
				}
				if !strings.Contains(msg, "OMIM") {
					t.Fatalf("round %d: OMIM's failure missing from %q", round, err)
				}
				if strings.Contains(msg, "LocusLink") {
					t.Fatalf("round %d: healthy source blamed: %q", round, err)
				}
			}
		})
	}
}

// TestFetchErrorDoesNotPoisonLaterQueries: after the outage clears, the
// same manager answers correctly (errors are never cached).
func TestFetchErrorDoesNotPoisonLaterQueries(t *testing.T) {
	c := corpus()
	m, fgo, _ := flakyManager(t, c, Options{})
	fgo.fail.Store(true)
	if _, _, err := m.QueryString(allSourcesQ); err == nil {
		t.Fatal("query succeeded during outage")
	}
	fgo.fail.Store(false)
	res, _, err := m.QueryString(allSourcesQ)
	if err != nil {
		t.Fatalf("query still failing after outage cleared: %v", err)
	}
	if res.Size() == 0 {
		t.Fatal("post-outage query returned no answers")
	}
}

// TestSequentialParallelParity: a parallel fan-out and a one-worker one
// must produce identical answers and per-source accounting for the same
// query.
func TestSequentialParallelParity(t *testing.T) {
	c := corpus()
	mp, _, _ := flakyManager(t, c, Options{DisableCache: true, Workers: 4})
	ms, _, _ := flakyManager(t, c, Options{DisableCache: true, Workers: 1})
	queries := append([]string{allSourcesQ}, deltaEquivQueries...)
	for i, src := range queries {
		rp, sp, err := mp.QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		rs, ss, err := ms.QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		got := oem.CanonicalText(rp.Graph, "answer", rp.Answer)
		want := oem.CanonicalText(rs.Graph, "answer", rs.Answer)
		if got != want {
			t.Errorf("query %d (%s): parallel and sequential answers diverge", i, src)
		}
		if len(sp.SourcesQueried) != len(ss.SourcesQueried) {
			t.Errorf("query %d: sources queried diverge: %v vs %v", i, sp.SourcesQueried, ss.SourcesQueried)
		}
		for srcName, n := range sp.Fetched {
			if ss.Fetched[srcName] != n {
				t.Errorf("query %d: %s fetched %d parallel vs %d sequential", i, srcName, n, ss.Fetched[srcName])
			}
		}
	}
}
