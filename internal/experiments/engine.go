package experiments

// E13–E20: the engine experiments — result cache, compiled plans and the
// snapshot path, deltas, epochs, persistence, change feeds, and the cost
// of observability and introspection.

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/lorel"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/snapstore"
	"repro/internal/sources/locuslink"
)

// figure5bQuery is the paper's running example in raw Lorel. It names
// every concept of the three demo sources, so it is answered on the epoch.
const figure5bQuery = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// symbolQuery is figure5bQuery selecting only the symbol: the answer is
// small, so a cycle is dominated by what precedes answer construction.
const symbolQuery = `select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// distinct returns the i-th of 1024 distinct snapshot-safe questions: base
// plus a bit-selected set of structural conjuncts, none of them
// pushdown-eligible, so every question qualifies for the epoch.
func distinct(base string, i int) string {
	extra := [...]string{
		" and exists G.Annotation", " and exists G.Annotation.GoID",
		" and exists G.Annotation.Evidence", " and exists G.Annotation.Term",
		" and exists G.Annotation.Organism", " and exists G.Links",
		" and exists G.Links.GO", " and exists G.Links.OMIM",
		" and not exists G.Disease", " and not exists G.Disease.MimNumber",
	}
	var sb strings.Builder
	sb.WriteString(base)
	for bit := range extra {
		if i&(1<<bit) != 0 {
			sb.WriteString(extra[bit])
		}
	}
	return sb.String()
}

// queryOp runs query(i) once per iteration.
func queryOp(sys *core.System, query func(i int) string) Op {
	return func(i int) error {
		_, _, err := sys.Query(query(i))
		return err
	}
}

// runQuery runs one query for its side effects: before a timed loop, it
// builds the epoch and the cache entry.
func runQuery(sys *core.System, query string) error {
	_, _, err := sys.Query(query)
	return err
}

// firstLoci returns the LocusIDs of the corpus's first n genes (at least 1).
func firstLoci(c *datagen.Corpus, n int) []int {
	n = max(1, min(n, len(c.Genes)))
	loci := make([]int, n)
	for i := range loci {
		loci[i] = c.Genes[i].LocusID
	}
	return loci
}

// edit rewrites the description of every locus in native LocusLink storage.
func edit(sys *core.System, loci []int, rev string) error {
	for _, id := range loci {
		if err := sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
			return err
		}
	}
	return nil
}

// refreshDelta absorbs a LocusLink edit on the delta path and fails when
// the refresh did not patch the epoch in place.
func refreshDelta(sys *core.System) error {
	rr, err := sys.Manager.RefreshSource("LocusLink")
	if err == nil && (rr.FullRebuild || !rr.Patched) {
		err = fmt.Errorf("delta path not taken: %+v", rr)
	}
	return err
}

var e13Questions = []core.Question{
	core.Figure5bQuestion(),
	{Include: []string{"OMIM"}},
	{Include: []string{"GO", "OMIM"}, Combine: core.CombineAny},
	{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Symbol", Op: "like", Value: "A%"}}},
	{Exclude: []string{"GO"}},
}

// e13Case asks the Figure 5(b) question again and again, with or without
// the result cache, from one goroutine or many.
func e13Case(name string, parallel bool, opts mediator.Options, rounds int) Case {
	return Case{Name: name, Scales: []int{1000}, Parallel: parallel, Rounds: rounds,
		Setup: onSystem(opts, func(sys *core.System) (Op, error) {
			_, _, err := sys.Ask(core.Figure5bQuestion())
			return askOp(sys, core.Figure5bQuestion()), err
		})}
}

var e13 = &Experiment{
	ID: "E13", Artifact: "result cache: repeated and concurrent questions, cached vs DisableCache",
	Cases: []Case{
		e13Case("RepeatedAskCached", false, mediator.Options{}, 200),
		e13Case("RepeatedAskUncached", false, mediator.Options{DisableCache: true}, 10),
		e13Case("ConcurrentAskCached", true, mediator.Options{}, 400),
		e13Case("ConcurrentAskUncached", true, mediator.Options{DisableCache: true}, 16),
		{Name: "DistinctQuestionsCached", Scales: []int{1000}, Rounds: 100, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			return func(i int) error {
				_, _, err := sys.Ask(e13Questions[i%len(e13Questions)])
				return err
			}, nil
		})},
	},
	Headlines: func(t map[string]Timing) map[string]any {
		return map[string]any{
			"sequential_speedup_x": ratio(t["RepeatedAskUncached"], t["RepeatedAskCached"]),
			"concurrent_speedup_x": ratio(t["ConcurrentAskUncached"], t["ConcurrentAskCached"]),
		}
	},
}

// e14Eval evaluates a query over the fused graph per iteration, either
// through a plan compiled once or compiling on every call.
func e14Eval(name string, compiled bool, query func(sys *core.System) string) Case {
	return Case{Name: name, Scales: []int{1000}, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
		g, _, err := sys.Manager.FusedGraph()
		if err != nil {
			return nil, err
		}
		q := lorel.MustParse(query(sys))
		plan, err := lorel.Compile(q)
		return func(int) error {
			if compiled {
				_, err := plan.Eval(g)
				return err
			}
			_, err := lorel.Eval(g, q)
			return err
		}, err
	})}
}

// e14Selective has a one-gene answer, so traversal and compilation dominate
// over answer construction.
func e14Selective(sys *core.System) string {
	return `select G.Symbol from ANNODA-GML.Gene G where G.Symbol = "` + sys.Corpus.Genes[0].Symbol + `"`
}

func e14Repeat(*core.System) string { return figure5bQuery }

var e14 = &Experiment{
	ID: "E14", Artifact: "compiled plans and the eval-only snapshot path",
	Cases: []Case{
		e14Eval("RepeatShapeCompiled", true, e14Repeat),
		e14Eval("RepeatShapeInterpreted", false, e14Repeat),
		e14Eval("SelectiveCompiled", true, e14Selective),
		e14Eval("SelectiveInterpreted", false, e14Selective),
		{Name: "DistinctQuestionsSnapshot", Scales: []int{1000}, Setup: onSystem(mediator.Options{CacheSize: 4096}, func(sys *core.System) (Op, error) {
			return func(i int) error {
				_, stats, err := sys.Query(distinct(figure5bQuery, i%1024))
				if err == nil && i < 1024 && !stats.SnapshotUsed {
					err = fmt.Errorf("distinct question %d missed the snapshot path", i)
				}
				return err
			}, nil
		})},
		{Name: "DistinctQuestionsFullPipeline", Scales: []int{1000}, Setup: onSystem(mediator.Options{DisableCache: true}, func(sys *core.System) (Op, error) {
			return queryOp(sys, func(i int) string { return distinct(figure5bQuery, i%1024) }), nil
		})},
	},
}

// e15Case edits 1% of LocusLink per iteration, absorbs the refresh — on
// the delta path (diff, in-place patch, concept-scoped invalidation) or the
// pre-delta one (wrapper Refresh, whole-cache drop, full rebuild on the
// next query) — and asks symbolQuery.
func e15Case(name string, delta bool) Case {
	return Case{Name: name, Scales: []int{1000, 10000}, Setup: onSystem(mediator.Options{CacheSize: 4096}, func(sys *core.System) (Op, error) {
		loci := firstLoci(sys.Corpus, len(sys.Corpus.Genes)/100)
		if _, stats, err := sys.Query(symbolQuery); err != nil || !stats.SnapshotUsed {
			return nil, fmt.Errorf("warm query missed the snapshot path (err %v)", err)
		}
		return func(i int) error {
			if err := edit(sys, loci, fmt.Sprintf("revision %d", i)); err != nil {
				return err
			}
			if delta {
				if err := refreshDelta(sys); err != nil {
					return err
				}
			} else {
				sys.Registry.Get("LocusLink").Refresh()
			}
			res, _, err := sys.Query(symbolQuery)
			if err == nil && res.Size() == 0 {
				err = fmt.Errorf("empty answer")
			}
			return err
		}, nil
	})}
}

var e15 = &Experiment{
	ID: "E15", Artifact: "incremental change feeds: refresh 1% of a source, then query",
	Cases: []Case{e15Case("DeltaRefresh", true), e15Case("FullRefresh", false)},
	Headlines: func(t map[string]Timing) map[string]any {
		return map[string]any{
			"refresh_speedup_x":  ratio(t["FullRefresh"], t["DeltaRefresh"]),
			"delta_per_round_us": t["DeltaRefresh"].PerOp,
			"full_per_round_us":  t["FullRefresh"].PerOp,
		}
	},
}

// e16ConcurrentEval evaluates compiled selective plans against the shared
// fused graph from many goroutines. The epoch variant reads the frozen
// snapshot with no lock held; the baseline reproduces the retired design:
// an unfrozen graph (no cache, so no epoch) plus a shared read lock held
// across eval.
func e16ConcurrentEval(name string, rwmutex bool) Case {
	return Case{Name: name, Scales: []int{1000}, Parallel: true, Rounds: 200,
		Setup: onSystem(mediator.Options{DisableCache: rwmutex}, func(sys *core.System) (Op, error) {
			g, _, err := sys.Manager.FusedGraph()
			if err != nil {
				return nil, err
			}
			plans := make([]*lorel.Plan, 256)
			for i := range plans {
				sym := sys.Corpus.Genes[i%len(sys.Corpus.Genes)].Symbol
				if plans[i], err = lorel.Compile(lorel.MustParse(
					`select G.Symbol from ANNODA-GML.Gene G where G.Symbol = "` + sym + `" and exists G.Annotation`)); err != nil {
					return nil, err
				}
			}
			g.EnsureLabelIndex()
			var mu sync.RWMutex
			return func(i int) error {
				if rwmutex {
					mu.RLock()
					defer mu.RUnlock()
				}
				_, err := plans[i%len(plans)].Eval(g)
				return err
			}, nil
		})}
}

// e16Distinct asks distinct epoch questions, with a result cache too small
// to answer them, so nearly every request is an epoch evaluation.
func e16Distinct(i int) string { return distinct(symbolQuery, i%1024) }

// e16Queries returns the first 64 distinct questions.
func e16Queries() []string {
	qs := make([]string, 64)
	for i := range qs {
		qs[i] = e16Distinct(i)
	}
	return qs
}

// e16ColdFuse builds the recorded fused snapshot from scratch per
// iteration: the cold-start and MaxDeltaFraction-fallback cost. workers 1
// is the sequential reference fusion; 8 pins the sharded path even on a
// host with fewer cores.
func e16ColdFuse(name string, workers int) Case {
	return Case{Name: name, Scales: []int{10000}, Rounds: 3, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
		return func(int) error {
			m := mediator.New(sys.Registry, sys.Global, mediator.Options{Workers: workers})
			g, _, err := m.FusedGraph()
			if err == nil && g.Len() == 0 {
				err = fmt.Errorf("empty fused graph")
			}
			return err
		}, nil
	})}
}

var e16 = &Experiment{
	ID: "E16", Artifact: "lock-free snapshot epochs, parallel fusion, batch eval",
	Cases: []Case{
		e16ConcurrentEval("ConcurrentEvalEpoch", false),
		e16ConcurrentEval("ConcurrentEvalRWMutexBaseline", true),
		{Name: "ConcurrentDistinctQuestions", Scales: []int{1000}, Parallel: true, Rounds: 320,
			Setup: onSystem(mediator.Options{CacheSize: 16}, func(sys *core.System) (Op, error) {
				return queryOp(sys, e16Distinct), runQuery(sys, e16Distinct(0))
			})},
		// Readers beside a writer that edits LocusLink and publishes
		// patched epochs without pause: with epochs the readers never block.
		{Name: "QueriesUnderRefreshChurn", Scales: []int{1000}, Parallel: true, Rounds: 320, Setup: func(env *Env) (Op, error) {
			sys, err := env.System(mediator.Options{CacheSize: 16})
			if err != nil {
				return nil, err
			}
			if err := runQuery(sys, e16Distinct(0)); err != nil {
				return nil, err
			}
			var stop atomic.Bool
			var churnErr atomic.Value
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := 1; !stop.Load(); r++ {
					id := sys.Corpus.Genes[r%len(sys.Corpus.Genes)].LocusID
					if err := edit(sys, []int{id}, fmt.Sprintf("churn %d", r)); err != nil {
						churnErr.Store(err)
						return
					}
					if _, err := sys.Manager.RefreshSource("LocusLink"); err != nil {
						churnErr.Store(err)
						return
					}
				}
			}()
			env.Cleanup(func() { stop.Store(true); <-done })
			return func(i int) error {
				if err, _ := churnErr.Load().(error); err != nil {
					return err
				}
				_, _, err := sys.Query(e16Distinct(i))
				return err
			}, nil
		}},
		{Name: "AskBatch64", Scales: []int{1000}, Setup: onSystem(mediator.Options{CacheSize: 16, Workers: 8}, func(sys *core.System) (Op, error) {
			queries := e16Queries()
			return func(int) error {
				answers, _, err := sys.QueryBatch(queries)
				for _, a := range answers {
					if err == nil {
						err = a.Err
					}
				}
				return err
			}, runQuery(sys, queries[0])
		})},
		{Name: "SequentialAsks64", Scales: []int{1000}, Setup: onSystem(mediator.Options{CacheSize: 16}, func(sys *core.System) (Op, error) {
			queries := e16Queries()
			return func(int) error {
				for _, q := range queries {
					if err := runQuery(sys, q); err != nil {
						return err
					}
				}
				return nil
			}, runQuery(sys, queries[0])
		})},
		e16ColdFuse("ColdFuseSequential", 1),
		e16ColdFuse("ColdFuseParallel", 8),
	},
	Headlines: func(t map[string]Timing) map[string]any {
		qps := func(t Timing) float64 { return 1 / t.PerOp.Seconds() }
		return map[string]any{
			"quiescent_qps": qps(t["ConcurrentDistinctQuestions"]),
			"churn_qps":     qps(t["QueriesUnderRefreshChurn"]),
		}
	},
}

// persisted opens a snapshot store in a fresh directory and enables
// persistence on sys. bulk keeps auto-checkpointing out of the way.
func persisted(env *Env, sys *core.System, bulk bool) (string, *snapstore.Store, error) {
	dir, err := os.MkdirTemp("", "annoda-exp-*")
	if err != nil {
		return "", nil, err
	}
	env.Cleanup(func() { _ = os.RemoveAll(dir) })
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		return "", nil, err
	}
	env.Cleanup(func() { st.Close() })
	var policy mediator.PersistPolicy
	if bulk {
		policy = mediator.PersistPolicy{EveryRecords: 1 << 30, EveryBytes: 1 << 50}
	}
	if err := sys.Manager.EnablePersistence(st, policy); err != nil {
		return "", nil, err
	}
	_, err = sys.Manager.SaveSnapshot()
	return dir, st, err
}

// restoreOp plays a restarted process against a primed data dir: open the
// store, decode the newest checkpoint, replay its WAL (wantReplayed
// records), publish — no wrapper fetch, no fusion.
func restoreOp(sys *core.System, dir string, wantReplayed int) Op {
	return func(int) error {
		m := mediator.New(sys.Registry, sys.Global, mediator.Options{})
		st, err := snapstore.Open(dir, snapstore.Options{})
		if err != nil {
			return err
		}
		defer st.Close()
		if err := m.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
			return err
		}
		rr, err := m.LoadSnapshot()
		if err == nil && (!rr.Restored || rr.WALReplayed != wantReplayed) {
			err = fmt.Errorf("restore: %+v, want %d replayed records", rr, wantReplayed)
		}
		return err
	}
}

var e17 = &Experiment{
	ID: "E17", Artifact: "durable snapshot store: warm restore vs cold fetch+fuse",
	Cases: []Case{
		// A restarted process without a store: wrapper models rebuild from
		// native storage and the mediator fetches, translates and fuses.
		{Name: "ColdFuse", Scales: []int{1000, 10000}, Rounds: 3, Setup: onSystem(mediator.Options{}, func(sys *core.System) (Op, error) {
			return func(int) error {
				for _, w := range sys.Registry.All() {
					w.Refresh()
				}
				g, _, err := mediator.New(sys.Registry, sys.Global, mediator.Options{}).FusedGraph()
				if err == nil && g.Len() == 0 {
					err = fmt.Errorf("empty fused graph")
				}
				return err
			}, nil
		})},
		{Name: "Restore", Scales: []int{1000, 10000}, Rounds: 3, Setup: func(env *Env) (Op, error) {
			sys, err := env.System(mediator.Options{})
			if err != nil {
				return nil, err
			}
			dir, st, err := persisted(env, sys, false)
			if err != nil {
				return nil, err
			}
			return restoreOp(sys, dir, 0), st.Close()
		}},
		// The E15 delta cycle with persistence on: the difference to E15
		// DeltaRefresh is the WAL append.
		{Name: "DeltaRefreshPersisted", Scales: []int{1000}, Setup: func(env *Env) (Op, error) {
			sys, err := env.System(mediator.Options{CacheSize: 4096})
			if err != nil {
				return nil, err
			}
			if _, _, err := persisted(env, sys, true); err != nil {
				return nil, err
			}
			loci := firstLoci(sys.Corpus, 10)
			reg := sys.Manager.Metrics()
			base := reg.Value("annoda_wal_records_appended_total")
			return func(i int) error {
				if err := edit(sys, loci, fmt.Sprintf("revision %d", i)); err != nil {
					return err
				}
				if err := refreshDelta(sys); err != nil {
					return err
				}
				if n := reg.Value("annoda_wal_records_appended_total") - base; n < int64(i+1) {
					return fmt.Errorf("WAL appends %d < refreshes %d", n, i+1)
				}
				_, _, err := sys.Query(symbolQuery)
				return err
			}, runQuery(sys, symbolQuery)
		}},
		// A checkpoint 32 refreshes old: decode plus 32 ChangeSet replays.
		{Name: "RestoreReplay32", Scales: []int{1000}, Setup: func(env *Env) (Op, error) {
			sys, err := env.System(mediator.Options{CacheSize: 4096})
			if err != nil {
				return nil, err
			}
			dir, st, err := persisted(env, sys, true)
			if err != nil {
				return nil, err
			}
			loci := firstLoci(sys.Corpus, 10)
			for r := 0; r < 32; r++ {
				if err := edit(sys, loci, fmt.Sprintf("churn %d", r)); err != nil {
					return nil, err
				}
				if err := refreshDelta(sys); err != nil {
					return nil, err
				}
			}
			return restoreOp(sys, dir, 32), st.Close()
		}},
		// One checkpoint: encode the fused world, write it durably.
		{Name: "CheckpointWrite", Scales: []int{1000}, Setup: func(env *Env) (Op, error) {
			sys, err := env.System(mediator.Options{})
			if err != nil {
				return nil, err
			}
			_, _, err = persisted(env, sys, false)
			return func(int) error {
				_, err := sys.Manager.SaveSnapshot()
				return err
			}, err
		}},
	},
	Headlines: func(t map[string]Timing) map[string]any {
		return map[string]any{
			"restore_speedup_x": ratio(t["ColdFuse"], t["Restore"]),
			"cold_restart_us":   t["ColdFuse"].PerOp,
			"warm_restart_us":   t["Restore"].PerOp,
		}
	},
}

// e18Fanout publishes one change event per iteration and waits until every
// subscriber's consumer goroutine has drained it: publish-to-consumed, not
// just the enqueue.
func e18Fanout(subs int) Case {
	return Case{Name: fmt.Sprintf("NotifyFanout%d", subs), Rounds: 200, Setup: func(env *Env) (Op, error) {
		h := feed.NewHub()
		var consumed atomic.Int64
		var wg sync.WaitGroup
		env.Cleanup(wg.Wait) // cleanups run in reverse: after every subscriber is closed
		for range subs {
			s := h.Subscribe(feed.Options{Buffer: 256})
			env.Cleanup(s.Close)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for _, ok := s.Next(); ok; _, ok = s.Next() {
						consumed.Add(1)
					}
					if s.Closed() {
						return
					}
					<-s.Notify()
				}
			}()
		}
		return func(i int) error {
			h.Publish(feed.Event{
				Kind: feed.KindChange, Source: "GO",
				Concepts: []string{"Annotation"}, Fingerprint: uint64(i + 1),
			}, nil)
			for consumed.Load() < int64(subs)*int64(i+1) {
				runtime.Gosched()
			}
			return nil
		}, nil
	}}
}

// answerLocus finds a gene inside figure5bQuery's answer (GO annotations,
// no disease, a description that survives fusion), so editing its
// description changes the answer.
func answerLocus(c *datagen.Corpus) (int, error) {
	diseased := map[int]bool{}
	for _, d := range c.Diseases {
		for _, l := range d.Loci {
			diseased[l] = true
		}
	}
	for i := range c.Genes {
		if g := &c.Genes[i]; len(g.GoTerms) > 0 && !diseased[g.LocusID] && !g.LLMissingDesc {
			return g.LocusID, nil
		}
	}
	return 0, fmt.Errorf("corpus has no annotated, disease-free gene")
}

// e18Watch edits the answer locus and refreshes once per iteration, then
// learns the new answer: pushed by a standing query, or by polling.
func e18Watch(name string, standing bool) Case {
	return Case{Name: name, Scales: []int{1000}, Setup: func(env *Env) (Op, error) {
		sys, err := env.System(mediator.Options{})
		if err != nil {
			return nil, err
		}
		id, err := answerLocus(sys.Corpus)
		if err != nil {
			return nil, err
		}
		if err := runQuery(sys, figure5bQuery); err != nil {
			return nil, err
		}
		refresh := func(i int) error {
			if err := edit(sys, []int{id}, fmt.Sprintf("%s rev %d", name, i)); err != nil {
				return err
			}
			_, err := sys.Manager.RefreshSource("LocusLink")
			return err
		}
		if !standing {
			return func(i int) error {
				if err := refresh(i); err != nil {
					return err
				}
				res, _, err := sys.Query(figure5bQuery)
				if err == nil && oem.CanonicalText(res.Graph, "answer", res.Answer) == "" {
					err = fmt.Errorf("empty canonical answer")
				}
				return err
			}, nil
		}
		sub, err := sys.Manager.SubscribeChanges(feed.Options{Concepts: []string{"NoSuchConcept"}})
		if err != nil {
			return nil, err
		}
		env.Cleanup(sub.Close)
		sq, err := sys.Manager.AddStandingQuery(sub, figure5bQuery)
		if err != nil {
			return nil, err
		}
		env.Cleanup(sq.Cancel)
		if _, ok := sub.Next(); !ok {
			return nil, fmt.Errorf("no baseline answer pushed")
		}
		return func(i int) error {
			if err := refresh(i); err != nil {
				return err
			}
			if ev, ok := sub.Next(); !ok || ev.Kind != feed.KindAnswer {
				return fmt.Errorf("round %d: no pushed answer (ok=%v kind=%v)", i, ok, ev.Kind)
			}
			return nil
		}, nil
	}}
}

var e18 = &Experiment{
	ID: "E18", Artifact: "live change feeds: fan-out, standing query vs polling",
	Cases: []Case{
		e18Fanout(100), e18Fanout(1000),
		e18Watch("StandingQueryPush", true), e18Watch("PollAfterRefresh", false),
	},
	Headlines: func(t map[string]Timing) map[string]any {
		return map[string]any{
			"fanout_100_per_event_us":  t["NotifyFanout100"].PerOp,
			"fanout_1000_per_event_us": t["NotifyFanout1000"].PerOp,
			"standing_per_round_us":    t["StandingQueryPush"].PerOp,
			"poll_per_round_us":        t["PollAfterRefresh"].PerOp,
			// Every timed round checks that an answer was pushed.
			"standing_answers_pushed": t["StandingQueryPush"].Ops,
		}
	},
}

// e19Case is the cached Ask hot path with a fresh observability bundle per
// setup when cfg is set (histograms, and traces at cfg's sampling), or none:
// every obs site then takes the nil fast path.
func e19Case(name string, parallel bool, cfg *obs.Config) Case {
	rounds := 200
	if parallel {
		rounds = 400
	}
	c := e13Case(name, parallel, mediator.Options{}, rounds)
	if cfg != nil {
		c.Setup = func(env *Env) (Op, error) {
			return e13Case(name, parallel, mediator.Options{Obs: obs.New(*cfg)}, rounds).Setup(env)
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
		e13Case("AskAnalyzeOff", false, mediator.Options{}, 200),
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
