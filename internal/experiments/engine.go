package experiments

// E19–E20: the cost of observability and of introspection on the cached
// Ask hot path.

import (
	"repro/internal/core"
	"repro/internal/lorel"
	"repro/internal/mediator"
	"repro/internal/obs"
)

// figure5bQuery is the paper's running example in raw Lorel. It names
// every concept of the three demo sources, so it is answered on the epoch.
const figure5bQuery = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// runQuery runs one query for its side effects: before a timed loop, it
// builds the epoch and the cache entry.
func runQuery(sys *core.System, query string) error {
	_, _, err := sys.Query(query)
	return err
}

// askCase asks the Figure 5(b) question again and again under opts, from
// one goroutine or many.
func askCase(name string, parallel bool, opts mediator.Options, rounds int) Case {
	return Case{Name: name, Scales: []int{1000}, Parallel: parallel, Rounds: rounds,
		Setup: onSystem(opts, func(sys *core.System) (Op, error) {
			_, _, err := sys.Ask(core.Figure5bQuestion())
			return askOp(sys, core.Figure5bQuestion()), err
		})}
}

// e19Case is the cached Ask hot path with a fresh observability bundle per
// setup when cfg is set (histograms, and traces at cfg's sampling), or none:
// every obs site then takes the nil fast path.
func e19Case(name string, parallel bool, cfg *obs.Config) Case {
	rounds := 200
	if parallel {
		rounds = 400
	}
	c := askCase(name, parallel, mediator.Options{}, rounds)
	if cfg != nil {
		c.Setup = func(env *Env) (Op, error) {
			return askCase(name, parallel, mediator.Options{Obs: obs.New(*cfg)}, rounds).Setup(env)
		}
	}
	return c
}

var e19 = &Experiment{
	ID: "E19", Artifact: "observability overhead: traced vs untraced Ask", Trials: 5,
	Cases: []Case{
		e19Case("AskUntraced", false, nil),
		e19Case("AskTraced", false, &obs.Config{}),
		e19Case("AskTracedSampled16", false, &obs.Config{SampleEvery: 16}),
		e19Case("ConcurrentAskUntraced", true, nil),
		e19Case("ConcurrentAskTraced", true, &obs.Config{}),
		e19Case("ConcurrentAskTracedSampled16", true, &obs.Config{SampleEvery: 16}),
	},
	Headlines: func(t map[string]Timing) map[string]any {
		return map[string]any{
			"untraced_per_ask_us":             t["AskUntraced"].PerOp,
			"traced_per_ask_us":               t["AskTraced"].PerOp,
			"sampled16_per_ask_us":            t["AskTracedSampled16"].PerOp,
			"sequential_overhead_pct":         overheadPct(t["AskTraced"], t["AskUntraced"]),
			"untraced_concurrent_per_ask_us":  t["ConcurrentAskUntraced"].PerOp,
			"traced_concurrent_per_ask_us":    t["ConcurrentAskTraced"].PerOp,
			"sampled16_concurrent_per_ask_us": t["ConcurrentAskTracedSampled16"].PerOp,
			"concurrent_overhead_pct":         overheadPct(t["ConcurrentAskTraced"], t["ConcurrentAskUntraced"]),
		}
	},
}

// e20Eval evaluates one compiled plan against the fused graph with or
// without a live EvalCounts: the per-stage counting cost alone.
func e20Eval(name string, counted bool) Case {
	return Case{Name: name, Scales: []int{1000}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
		fused, _, err := sys.Manager.FusedGraph()
		if err != nil {
			return nil, err
		}
		plan, err := lorel.Compile(lorel.MustParse(figure5bQuery))
		return func(int) error {
			var ec *lorel.EvalCounts
			if counted {
				ec = &lorel.EvalCounts{}
			}
			_, err := plan.EvalMasked(fused, nil, ec)
			return err
		}, err
	})}
}

// e20Explain is the explain surface itself: plan-only (parse, analyze,
// plan, classify, render), or analyze (plus a counted execution on the
// pinned epoch).
func e20Explain(name string, analyze bool, rounds int) Case {
	return Case{Name: name, Scales: []int{1000}, Rounds: rounds, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
		return func(int) error {
			_, err := sys.Manager.ExplainString(figure5bQuery, analyze)
			return err
		}, runQuery(sys, figure5bQuery)
	})}
}

var e20 = &Experiment{
	ID: "E20", Artifact: "introspection overhead: EXPLAIN/ANALYZE and counted eval", Trials: 5,
	Cases: []Case{
		// The cached Ask with the instrumented evaluator in the binary but
		// no counts attached.
		askCase("AskAnalyzeOff", false, mediator.Options{}, 200),
		e20Eval("EvalPlain", false),
		e20Eval("EvalCounted", true),
		e20Explain("ExplainPlanOnly", false, 200),
		e20Explain("ExplainAnalyze", true, 10),
	},
	Headlines: func(t map[string]Timing) map[string]any {
		return map[string]any{
			"ask_analyze_off_per_us":   t["AskAnalyzeOff"].PerOp,
			"eval_plain_per_us":        t["EvalPlain"].PerOp,
			"eval_counted_per_us":      t["EvalCounted"].PerOp,
			"explain_plan_only_per_us": t["ExplainPlanOnly"].PerOp,
			"explain_analyze_per_us":   t["ExplainAnalyze"].PerOp,
			"counting_overhead_pct":    overheadPct(t["EvalCounted"], t["EvalPlain"]),
			"analyze_overhead_pct":     overheadPct(t["ExplainAnalyze"], t["EvalPlain"]),
		}
	},
}
