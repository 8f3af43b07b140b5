package mediator

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/lorel"
	"repro/internal/obs"
)

// Batch evaluation: THEA-style ontology analyses ask hundreds of related
// questions over one stable annotation world. AskBatchCtx pins a single
// snapshot epoch for the whole batch — one atomic load, amortized over N
// questions — and evaluates the compiled plans concurrently against the
// frozen epoch graph, so the batch scales with cores and every answer
// describes the same consistent world even while refreshes publish new
// epochs underneath.

// BatchAnswer is one question's outcome within an AskBatchCtx call. Result
// and Stats are nil when Err is set; answers arrive in input order.
type BatchAnswer struct {
	Query  string
	Result *lorel.Result
	Stats  *Stats
	Err    error
}

// AskBatchCtx parses, compiles and evaluates many Lorel queries as one
// batch. Snapshot-safe questions (the common case for generated analysis
// workloads) are evaluated lock-free against one pinned epoch, bypassing
// the result cache — strict same-world semantics beat reuse inside a
// batch. Questions the snapshot cannot answer exactly (pushdown would
// change what they observe, or the epoch cannot be masked for them) fall
// back to the full Query path. A malformed question fails only its own
// answer, never the batch.
//
// The aggregate Stats describes the batch: BatchQuestions is the question
// count and EvalTime the total wall-clock evaluation time (String reports
// the per-question share). The batch records into the request trace
// carried by ctx (or a fresh one when observability is on and ctx has
// none).
func (m *Manager) AskBatchCtx(ctx context.Context, queries []string) ([]BatchAnswer, *Stats, error) {
	op := m.beginOp(ctx, "batch", fmt.Sprintf("%d questions", len(queries)))
	answers, stats, err := m.askBatch(queries, op.tr)
	m.endOp(op, m.opBatchDur, m.opBatchErr, err)
	return answers, stats, err
}

func (m *Manager) askBatch(queries []string, tr *obs.Trace) ([]BatchAnswer, *Stats, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("mediator: empty batch")
	}
	answers := make([]BatchAnswer, len(queries))
	for i, src := range queries {
		answers[i].Query = src
	}

	// Pin one epoch for the whole batch (building it if cold). With the
	// cache disabled there is no epoch infrastructure; every question
	// runs the full pipeline concurrently instead.
	var ep *snapshot
	if m.cache != nil {
		tp := obs.Now()
		var err error
		ep, _, err = m.pinEpoch()
		if err != nil {
			return nil, nil, err
		}
		tr.Span(obs.StageEpochPin, tp)
	}

	workers := m.opts.Workers
	if workers > len(queries) {
		workers = len(queries)
	}
	t0 := obs.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m.askOne(&answers[i], ep, tr)
		}(i)
	}
	wg.Wait()

	var agg *Stats
	if ep != nil {
		agg = ep.stats.clone()
	} else {
		agg = &Stats{Fetched: map[string]int{}, Kept: map[string]int{}, Parallel: m.opts.Workers > 1}
	}
	agg.BatchQuestions = len(queries)
	agg.EvalTime = obs.Since(t0)
	tr.SpanDur(obs.StageEval, t0, agg.EvalTime, fmt.Sprintf("%d workers", workers))
	return answers, agg, nil
}

// askOne answers one batch question into ans, against the pinned epoch
// when the question qualifies.
func (m *Manager) askOne(ans *BatchAnswer, ep *snapshot, tr *obs.Trace) {
	q, err := lorel.Parse(ans.Query)
	if err != nil {
		ans.Err = err
		return
	}
	canon := q.String()
	an, err := m.analyze(q)
	if err != nil {
		ans.Err = err
		return
	}
	if ep != nil {
		if d := m.snapshotPathDecision(an, q, ep); d.safe {
			plan, err := m.planFor(q, canon)
			if err != nil {
				ans.Err = err
				return
			}
			// No per-question span: the batch records one eval span for all.
			ans.Result, ans.Stats, ans.Err = m.evalEpoch(ep, plan, d, nil, nil)
			return
		}
	}
	ans.Result, ans.Stats, ans.Err = m.queryAnalyzed(q, canon, an, tr)
}
