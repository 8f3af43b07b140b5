package experiments

// E1–E12: the paper's figures and tables, and the quantitative questions
// attached to them.

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/capability"
	"repro/internal/core"
	"repro/internal/fedsql"
	"repro/internal/gml"
	"repro/internal/lorel"
	"repro/internal/match"
	"repro/internal/mediator"
	"repro/internal/navigate"
	"repro/internal/oem"
	"repro/internal/sources/locuslink"
	"repro/internal/warehouse"
	"repro/internal/wrapper"
)

var e1 = &Experiment{
	ID: "E1", Artifact: "Figures 2/3: the ANNODA-OML model of a LocusLink record",
	Print: func(w io.Writer, sys *core.System) error {
		text, err := wrapper.FragmentText(sys.Registry.Get("LocusLink"), 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ANNODA-OML representation of the structure and contents of LocusLink (Figure 3):")
		fmt.Fprintln(w, text)
		// The round trip proves the notation is a real serialization.
		if _, err := oem.DecodeText(strings.NewReader(text)); err != nil {
			return err
		}
		fmt.Fprintln(w, "round-trip decode: ok")
		return nil
	},
	Cases: []Case{
		{Name: "OMLExport", Scales: []int{500}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			ll := sys.Registry.Get("LocusLink")
			return func(int) error {
				ll.Refresh()
				_, err := ll.Model()
				return err
			}, nil
		})},
		{Name: "Figure3Text", Scales: []int{100}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			ll := sys.Registry.Get("LocusLink")
			return func(i int) error {
				_, err := wrapper.FragmentText(ll, i%len(sys.Corpus.Genes))
				return err
			}, nil
		})},
	},
}

var e2 = &Experiment{
	ID: "E2", Artifact: "Figure 4: the ANNODA-GML global model",
	Print: func(w io.Writer, sys *core.System) error {
		g, err := sys.Global.Materialize(sys.Registry)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "materialized GML: %d objects\n\nmapping module output (MDSM + transformation calls):\n%s",
			g.Len(), sys.Global.Describe())
		return nil
	},
	Cases: []Case{
		{Name: "GMLBuild", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			return func(int) error {
				_, err := gml.Build(sys.Registry, match.Options{})
				return err
			}, nil
		})},
		{Name: "GMLMaterialize", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			return func(int) error {
				_, err := sys.Global.Materialize(sys.Registry)
				return err
			}, nil
		})},
	},
}

const e3Query = `select X from ANNODA-GML.Source X where X.Name = "LocusLink"`

var e3 = &Experiment{
	ID: "E3", Artifact: "§4.1: the paper's Lorel query and its answer object",
	Print: func(w io.Writer, sys *core.System) error {
		g, err := sys.Global.Materialize(sys.Registry)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "query:", e3Query)
		res, err := lorel.Eval(g, lorel.MustParse(e3Query))
		if err != nil {
			return err
		}
		xs := res.Graph.Children(res.Answer, "X")
		fmt.Fprintf(w, "answer object %s with %d X edge(s); children of X:\n", res.Answer, len(xs))
		for _, x := range xs {
			for _, label := range []string{"SourceID", "Name", "Content", "Structure"} {
				child := res.Graph.Child(x, label)
				fmt.Fprintf(w, "    %-10s %s %s\n", label, child, res.Graph.KindOf(child))
			}
		}
		return nil
	},
	Cases: []Case{
		{Name: "LorelSelect", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			g, err := sys.Global.Materialize(sys.Registry)
			if err != nil {
				return nil, err
			}
			return func(int) error {
				q, err := lorel.Parse(e3Query)
				if err != nil {
					return err
				}
				res, err := lorel.Eval(g, q)
				if err == nil && res.Size() != 1 {
					err = fmt.Errorf("%d answers, want 1", res.Size())
				}
				return err
			}, nil
		})},
	},
}

var e4 = &Experiment{
	ID: "E4", Artifact: "Figure 5(a): biological question to global Lorel",
	Print: func(w io.Writer, sys *core.System) error {
		for _, q := range []core.Question{
			core.Figure5bQuestion(),
			{Include: []string{"GO", "OMIM"}, Combine: core.CombineAll},
			{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Organism", Op: "=", Value: "Homo sapiens"}}},
		} {
			l, err := sys.ToLorel(q)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "question %+v\n  -> %s\n", q, l)
		}
		return nil
	},
	Cases: []Case{
		{Name: "QuestionCompile", Scales: []int{100}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			q := core.Figure5bQuestion()
			return func(int) error {
				_, err := sys.ToLorel(q)
				return err
			}, nil
		})},
	},
}

// askOp asks q once per iteration and fails on an empty view.
func askOp(sys *core.System, q core.Question) Op {
	return func(int) error {
		v, _, err := sys.Ask(q)
		if err == nil && len(v.Rows) == 0 {
			err = fmt.Errorf("empty view")
		}
		return err
	}
}

var e5 = &Experiment{
	ID: "E5", Artifact: "Figure 5(b): the integrated annotation view",
	Print: func(w io.Writer, sys *core.System) error {
		v, stats, err := sys.Ask(core.Figure5bQuestion())
		if err != nil {
			return err
		}
		lines := strings.Split(v.Format(), "\n")
		if len(lines) > 14 {
			lines = append(lines[:12], fmt.Sprintf("  ... (%d more rows)", len(v.Rows)-10), lines[len(lines)-2])
		}
		truth := len(sys.Corpus.GenesWithGoButNotOMIM())
		fmt.Fprintln(w, strings.Join(lines, "\n"))
		fmt.Fprintf(w, "ground truth: %d genes; view: %d rows; agree=%v\n%s", truth, len(v.Rows), truth == len(v.Rows), stats)
		return nil
	},
	Cases: []Case{
		{Name: "IntegratedView", Scales: []int{100, 1000, 5000}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			return askOp(sys, core.Figure5bQuestion()), nil
		})},
	},
}

// linkedGene returns the first gene's self-URL for which keep holds.
func linkedGene(sys *core.System, keep func(i int) bool) (string, error) {
	for i := range sys.Corpus.Genes {
		if keep(i) {
			return locuslink.SelfURL(sys.Corpus.Genes[i].LocusID), nil
		}
	}
	return "", fmt.Errorf("no gene in the corpus qualifies")
}

var e6 = &Experiment{
	ID: "E6", Artifact: "Figure 5(c): individual object view and web-link chase",
	Print: func(w io.Writer, sys *core.System) error {
		url, err := linkedGene(sys, func(i int) bool {
			return len(sys.Corpus.Genes[i].GoTerms) > 0 && len(sys.Corpus.Genes[i].Diseases) > 0
		})
		if err != nil {
			return err
		}
		out, err := sys.ObjectView(url)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "individual object view for %s\n%s\n", url, out)
		s := navigate.NewSession(sys.Resolver)
		if _, err := s.Open(url); err != nil {
			return err
		}
		targets, err := s.FollowAll()
		if err != nil {
			return err
		}
		bySource := map[string]int{}
		for _, t := range targets {
			bySource[t.Source]++
		}
		fmt.Fprintf(w, "followed %d web-links (%d round trips): %v\n", len(targets), s.Trips, bySource)
		return nil
	},
	Cases: []Case{
		{Name: "ObjectView", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			return func(i int) error {
				_, err := sys.ObjectView(locuslink.SelfURL(sys.Corpus.Genes[i%len(sys.Corpus.Genes)].LocusID))
				return err
			}, nil
		})},
		{Name: "LinkChase", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			start, err := linkedGene(sys, func(i int) bool { return len(sys.Corpus.Genes[i].GoTerms) > 0 })
			return func(int) error {
				s := navigate.NewSession(sys.Resolver)
				if _, err := s.Open(start); err != nil {
					return err
				}
				_, err := s.FollowAll()
				return err
			}, err
		})},
	},
}

// capabilityTable probes every system of Table 1 live. It plugs ProtDB into
// sys, so callers hand it a system of their own.
func capabilityTable(sys *core.System) ([]capability.Row, error) {
	f, err := capability.NewFixture(sys)
	if err != nil {
		return nil, err
	}
	return capability.BuildTable(f)
}

var e7 = &Experiment{
	ID: "E7", Artifact: "Table 1: capabilities and per-system latency on one question",
	Print: func(w io.Writer, sys *core.System) error {
		probe, err := core.New(sys.Corpus, mediator.Options{})
		if err != nil {
			return err
		}
		rows, err := capabilityTable(probe)
		if err == nil {
			fmt.Fprint(w, capability.Format(rows))
		}
		return err
	},
	Cases: []Case{
		{Name: "ANNODA", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			return askOp(sys, core.Figure5bQuestion()), nil
		})},
		{Name: "GUSWarehouse", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			gus := warehouse.New(sys.Registry, sys.Global)
			return func(int) error {
				_, err := gus.Figure5b()
				return err
			}, gus.Refresh()
		})},
		{Name: "DiscoveryLink", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			dl := fedsql.New(sys.Registry)
			return func(int) error {
				_, err := dl.Figure5b()
				return err
			}, nil
		})},
		{Name: "Hypertext", Scales: []int{300}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			h := &navigate.Hypertext{LL: sys.LocusLink, GO: sys.GO, OM: sys.OMIM}
			return func(int) error {
				if syms, _ := h.AnswerFigure5b(); len(syms) == 0 {
					return fmt.Errorf("empty answer")
				}
				return nil
			}, nil
		})},
		{Name: "TableGeneration", Scales: []int{100}, Rounds: 3, Setup: func(env *Env) (Op, error) {
			return func(int) error {
				sys, err := env.System(mediator.Options{})
				if err != nil {
					return err
				}
				rows, err := capabilityTable(sys)
				if err == nil && len(rows) != 15 {
					err = fmt.Errorf("%d table rows, want 15", len(rows))
				}
				return err
			}, nil
		}},
	},
}

const e8Query = `select G from ANNODA-GML.Gene G where G.Symbol like "A%" and exists G.Annotation and not exists G.Disease`

// e8Case computes e8Query on every iteration (no result cache) under opts.
func e8Case(name string, opts mediator.Options) Case {
	opts.DisableCache = true
	return Case{Name: name, Scales: []int{1000}, Setup: onSystem(opts, func(sys *core.System) (Op, error) {
		return func(int) error {
			_, _, err := sys.Query(e8Query)
			return err
		}, nil
	})}
}

var e8 = &Experiment{
	ID: "E8", Artifact: "optimizer ablation: pushdown and parallel fan-out",
	Cases: []Case{
		e8Case("AllOptimizations", mediator.Options{}),
		e8Case("NoPushdown", mediator.Options{DisablePushdown: true}),
		e8Case("OneWorker", mediator.Options{Workers: 1}),
		e8Case("NoOptimizations", mediator.Options{DisablePushdown: true, Workers: 1}),
	},
}

// e9Truth is the hand-written correspondence each matcher is scored against.
var e9Truth = map[string]map[string]string{
	"LocusLink": {"LocusID": "GeneID", "Symbol": "Symbol", "Organism": "Organism",
		"Description": "Description", "Position": "Position", "Alias": "Alias",
		"Links": "Links", "WebLink": "WebLink"},
	"GO": {"GeneSymbol": "Symbol", "Organism": "Organism", "GoID": "GoID",
		"Evidence": "Evidence", "Term": "Term"},
	"OMIM": {"MimNumber": "MimNumber", "Title": "Title", "GeneSymbol": "Symbol",
		"Locus": "GeneID", "CytoPosition": "Position", "Inheritance": "Inheritance",
		"WebLink": "WebLink"},
}

type matcher func(a, b wrapper.Schema, o match.Options) match.Result

var e9Matchers = []struct {
	name string
	fn   matcher
}{{"Hungarian", match.Match}, {"Greedy", match.MatchGreedy}, {"Stable", match.MatchStable}}

// e9Case runs fn over every (source, concept) schema pair per iteration.
func e9Case(name string, fn matcher) Case {
	return Case{Name: name, Scales: []int{200}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
		schemas, err := sys.Registry.Schemas()
		concepts := gml.DomainConcepts()
		return func(int) error {
			for _, s := range schemas {
				for _, c := range concepts {
					fn(s, c.Schema(), match.Options{})
				}
			}
			return nil
		}, err
	})}
}

var e9 = &Experiment{
	ID: "E9", Artifact: "MDSM matching: Hungarian vs greedy vs stable",
	Print: func(w io.Writer, sys *core.System) error {
		schemas, err := sys.Registry.Schemas()
		if err != nil {
			return err
		}
		conceptFor := map[string]string{"LocusLink": "Gene", "GO": "Annotation", "OMIM": "Disease"}
		fmt.Fprintf(w, "%-10s %-10s %-7s %-7s %s\n", "source", "matcher", "prec", "recall", "F1")
		for _, s := range schemas {
			var target wrapper.Schema
			for _, c := range gml.DomainConcepts() {
				if c.Name == conceptFor[s.Source] {
					target = c.Schema()
				}
			}
			for _, m := range e9Matchers {
				p, r, f1 := match.Evaluate(m.fn(s, target, match.Options{}), e9Truth[s.Source])
				fmt.Fprintf(w, "%-10s %-10s %-7.3f %-7.3f %.3f\n", s.Source, m.name, p, r, f1)
			}
		}
		return nil
	},
	Cases: []Case{
		e9Case(e9Matchers[0].name, e9Matchers[0].fn),
		e9Case(e9Matchers[1].name, e9Matchers[1].fn),
		e9Case(e9Matchers[2].name, e9Matchers[2].fn),
	},
}

var e10 = &Experiment{
	ID: "E10", Artifact: "related works: four architectures answer one question",
	Print: func(w io.Writer, sys *core.System) error {
		fmt.Fprintf(w, "question: genes annotated in GO but not associated with an OMIM disease\nground truth: %d genes\n\n",
			len(sys.Corpus.GenesWithGoButNotOMIM()))
		v, _, err := sys.Ask(core.Figure5bQuestion())
		if err != nil {
			return err
		}
		f, err := capability.NewFixture(sys)
		if err != nil {
			return err
		}
		gusSyms, err := f.GUS.Figure5b()
		if err != nil {
			return err
		}
		dlSyms, err := f.DL.Figure5b()
		if err != nil {
			return err
		}
		hSyms, trips := (&navigate.Hypertext{LL: sys.LocusLink, GO: sys.GO, OM: sys.OMIM}).AnswerFigure5b()
		row := "%-22s %-8v %-22s %s\n"
		fmt.Fprintf(w, row, "architecture", "answers", "freshness", "notes")
		fmt.Fprintf(w, row, "ANNODA (federated)", len(v.Rows), "always fresh", "one global query, reconciled")
		fmt.Fprintf(w, row, "GUS (warehouse)", len(gusSyms), "stale until refresh", "fast local SQL after ETL")
		fmt.Fprintf(w, row, "DiscoveryLink (SQL)", len(dlSyms), "fresh per query", "user writes SQL + client anti-join")
		fmt.Fprintf(w, row, "Hypertext (Entrez)", len(hSyms), "fresh per page", fmt.Sprintf("%d link round-trips, no reconciliation", trips))
		return nil
	},
	Cases: []Case{
		{Name: "WarehouseRefresh", Scales: []int{500}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			gus := warehouse.New(sys.Registry, sys.Global)
			return func(int) error { return gus.Refresh() }, nil
		})},
	},
}

var e11 = &Experiment{
	ID: "E11", Artifact: "§5: plugging ProtDB in at runtime",
	Print: func(w io.Writer, sys *core.System) error {
		fresh, err := core.New(sys.Corpus, mediator.Options{})
		if err != nil {
			return err
		}
		if err := fresh.PlugInProteins(); err != nil {
			return err
		}
		m := fresh.Global.MappingFor("ProtDB")
		fmt.Fprintf(w, "plugged ProtDB in; mapped to concept %s with %d rules:\n", m.Concept, len(m.Rules))
		for _, r := range m.Rules {
			fmt.Fprintf(w, "  %-12s <- %-4s  %s (score %.3f)\n", r.Global, r.Local, r.Transform, r.Score)
		}
		v, _, err := fresh.Ask(core.Question{Include: []string{"ProtDB"}})
		if err == nil {
			fmt.Fprintf(w, "genes with protein records: %d\n", len(v.Rows))
		}
		return err
	},
	Cases: []Case{
		{Name: "PlugSource", Scales: []int{300}, Rounds: 3, Setup: func(env *Env) (Op, error) {
			return func(int) error {
				sys, err := env.System(mediator.Options{})
				if err != nil {
					return err
				}
				return sys.PlugInProteins()
			}, nil
		}},
	},
}

// e12Case annotates every gene of the corpus in one batch per iteration.
func e12Case(name string, workers int) Case {
	return Case{Name: name, Scales: []int{1000}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
		symbols := make([]string, len(sys.Corpus.Genes))
		for i := range sys.Corpus.Genes {
			symbols[i] = sys.Corpus.Genes[i].Symbol
		}
		return func(int) error {
			results, err := sys.AnnotateBatch(symbols, workers)
			if err == nil && len(results) != len(symbols) {
				err = fmt.Errorf("%d results for %d symbols", len(results), len(symbols))
			}
			return err
		}, nil
	})}
}

var e12 = &Experiment{
	ID: "E12", Artifact: "§5: large-scale batch annotation",
	Cases: []Case{e12Case("Batch1Worker", 1), e12Case("Batch8Workers", 8)},
}
