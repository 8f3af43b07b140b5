package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/feed"
	"repro/internal/mediator"
	"repro/internal/oem"
	"repro/internal/snapstore"
	"repro/internal/sources/locuslink"
)

// churnEnv is refresh_churn's in-process system. Sources can only be
// edited in-process (over HTTP, /api/refresh always sees an empty diff), so
// this workload runs against a core.System assembled the way
// annoda-server's main assembles it, with -data-dir: core.New,
// PlugInProteins, EnablePersistence, LoadSnapshot.
type churnEnv struct {
	sys   *core.System
	store *snapstore.Store
	dir   string
	sub   *feed.Subscriber
	// revision numbers the refreshes that have returned; it runs on across
	// windows so that a later window's answers never look fresh by accident.
	revision atomic.Int64
}

// newChurnSystem assembles a persistent system over dir. Persistence keeps
// the server's default policy and no fsync.
func newChurnSystem(genes int, dir string) (*core.System, *snapstore.Store, *mediator.RestoreResult, error) {
	sys, err := serverLikeSystem(corpusFor(genes))
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		st.Close()
		return nil, nil, nil, err
	}
	rr, err := sys.Manager.LoadSnapshot()
	if err != nil {
		st.Close()
		return nil, nil, nil, err
	}
	return sys, st, rr, nil
}

// setupChurn builds the system in a fresh store directory, subscribes one
// change-feed consumer, answers the priming reads and writes the first
// checkpoint, so that every refresh of the window appends to the WAL.
func setupChurn(root string, genes int, prime []request) (*churnEnv, error) {
	bd, err := buildDir(root)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(bd, "churn-store-")
	if err != nil {
		return nil, err
	}
	sys, st, _, err := newChurnSystem(genes, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &churnEnv{sys: sys, store: st, dir: dir}
	if e.sub, err = sys.Manager.SubscribeChanges(feed.Options{}); err != nil {
		e.close()
		return nil, err
	}
	for _, rq := range prime {
		if _, _, err := e.read(context.Background(), rq, liveSpan{}); err != nil {
			e.close()
			return nil, err
		}
	}
	if _, err := sys.Manager.SaveSnapshot(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *churnEnv) close() {
	if e.sub != nil {
		e.sub.Close()
	}
	e.store.Close()
	os.RemoveAll(e.dir)
}

// readOutcome is what one in-process read returned, reduced to what the
// checks need.
type readOutcome struct {
	class     string
	rows      []askRow // asks
	answers   int      // queries
	revisions []int    // queries: every "revision N" description in the answer
}

// read executes one request against the live system under a child span of
// parent.
func (e *churnEnv) read(ctx context.Context, rq request, parent liveSpan) (readOutcome, *mediator.Stats, error) {
	if rq.ask != nil {
		sp := parent.child("System.AskCtx", "core")
		v, st, err := e.sys.AskCtx(ctx, *rq.ask)
		if err != nil {
			sp.end("error")
			return readOutcome{}, nil, err
		}
		out := readOutcome{class: "ask_miss", rows: viewRows(v)}
		if st.CacheHit {
			out.class = "ask_hit"
		}
		sp.end(strings.TrimPrefix(out.class, "ask_"))
		return out, st, nil
	}
	sp := parent.child("Manager.QueryStringCtx", "mediator")
	res, st, err := e.sys.QueryCtx(ctx, rq.query)
	if err != nil {
		sp.end("error")
		return readOutcome{}, nil, err
	}
	sp.end(missNote(st))
	out := readOutcome{class: rq.class, answers: res.Size()}
	for _, oid := range res.Graph.Children(res.Answer, "Description") {
		if rest, ok := strings.CutPrefix(res.Graph.Get(oid).Str, "revision "); ok {
			if n, err := strconv.Atoi(rest); err == nil {
				out.revisions = append(out.revisions, n)
			}
		}
	}
	return out, st, nil
}

// missNote names the outcome of a query for a span: "hit", or the route a
// miss took.
func missNote(st *mediator.Stats) string {
	switch {
	case st.CacheHit:
		return "hit"
	case st.SnapshotUsed:
		return "miss:epoch"
	case st.PushdownUsed:
		return "miss:pushdown"
	default:
		return "miss:pipeline"
	}
}

// editedLoci picks the 1% of LocusLink the writer revises on every refresh.
// Half come from the epoch query's own answer, so that a stale answer
// always has a revision to show.
func editedLoci(sys *core.System, seed uint64) ([]int, error) {
	ref := oracleOver(sys)
	res, _, err := ref.sys.Query("select G.GeneID from ANNODA-GML.Gene G" + epochWhere)
	if err != nil {
		return nil, err
	}
	var inAnswer []int
	for _, oid := range res.Graph.Children(res.Answer, "GeneID") {
		inAnswer = append(inAnswer, int(res.Graph.Get(oid).Int))
	}
	if len(inAnswer) == 0 {
		return nil, fmt.Errorf("the epoch query has no answers to watch")
	}
	rng := datagen.NewRNG(seed ^ 0xED17)
	datagen.Shuffle(rng, inAnswer)
	all := make([]int, 0, len(sys.Corpus.Genes))
	for _, g := range sys.Corpus.Genes {
		all = append(all, g.LocusID)
	}
	datagen.Shuffle(rng, all)
	want := max(2, len(all)/100)
	seen := map[int]bool{}
	var out []int
	for _, id := range append(inAnswer[:min(len(inAnswer), (want+1)/2)], all...) {
		if !seen[id] && len(out) < want {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out, nil
}

// churnResult is what one refresh_churn window produced.
type churnResult struct {
	obs        []obsv
	attempted  int
	errs       []string // failed reads, failed refreshes, stale reads
	elapsed    time.Duration
	refreshMS  []float64 // mutate -> refresh -> reindex returned
	reindexMS  []float64
	duringMS   []float64     // latencies of reads that overlapped a refresh
	sampleRows []sampledRows // asks kept for the oracle
}

type sampledRows struct {
	rq   request
	rows []askRow
}

// run drives the system for d: a writer that, every refreshEvery, revises
// the edited loci and does what the server's apiRefresh does
// (RefreshSourceCtx, then Resolver.Reindex), and one closed-loop reader
// cycling through the plan. After refresh i has returned, an epoch-query
// answer showing a revision below i is a stale read.
func (e *churnEnv) run(p plan, seed uint64, edited []int, d, refreshEvery time.Duration, tr *tracer) *churnResult {
	ctx := context.Background()
	res := &churnResult{}
	type interval struct{ from, to time.Time }
	var refreshes []interval
	var writerErrs []string

	t0 := time.Now()
	deadline := t0.Add(d)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The subscriber drains its queue as the server's /api/watch loop would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-e.sub.Notify():
				for {
					if _, ok := e.sub.Next(); !ok {
						break
					}
				}
			case <-stop:
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; ; k++ {
			due := t0.Add(time.Duration(k) * refreshEvery)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			root := tr.root("refresh")
			start := time.Now()
			n := e.revision.Load() + 1
			rev := fmt.Sprintf("revision %d", n)
			sp := root.child("LocusLink.Update", "sources")
			for _, id := range edited {
				if err := e.sys.LocusLink.Update(id, func(l *locuslink.Locus) { l.Description = rev }); err != nil {
					writerErrs = append(writerErrs, err.Error())
				}
			}
			sp.end("")
			sp = root.child("Manager.RefreshSourceCtx", "mediator")
			_, err := e.sys.Manager.RefreshSourceCtx(ctx, "LocusLink")
			sp.end("")
			if err != nil {
				writerErrs = append(writerErrs, "refresh: "+err.Error())
				root.end("error")
				continue
			}
			sp = root.child("Resolver.Reindex", "navigate")
			tIdx := time.Now()
			err = e.sys.Resolver.Reindex()
			res.reindexMS = append(res.reindexMS, ms(time.Since(tIdx)))
			sp.end("")
			if err != nil {
				writerErrs = append(writerErrs, "reindex: "+err.Error())
				root.end("error")
				continue
			}
			end := time.Now()
			e.revision.Store(n)
			root.end("")
			res.refreshMS = append(res.refreshMS, ms(end.Sub(start)))
			refreshes = append(refreshes, interval{start, end})
		}
	}()

	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(deadline) {
			break
		}
		rq := p.at(i)
		done := int(e.revision.Load())
		res.attempted++
		root := tr.root(rq.class)
		out, _, err := e.read(ctx, rq, root)
		lat := time.Since(start)
		root.end(out.class)
		if err != nil {
			res.errs = append(res.errs, err.Error())
			continue
		}
		res.obs = append(res.obs, obsv{class: out.class, start: start, lat: lat})
		if rq.ask == nil && done > 0 {
			if len(out.revisions) == 0 {
				res.errs = append(res.errs, fmt.Sprintf("stale read: no revision visible after refresh %d", done))
			}
			for _, rev := range out.revisions {
				if rev < done {
					res.errs = append(res.errs, fmt.Sprintf("stale read: revision %d after refresh %d returned", rev, done))
					break
				}
			}
		}
		if rq.ask != nil && sampled(i, seed) {
			res.sampleRows = append(res.sampleRows, sampledRows{rq, out.rows})
		}
	}
	res.elapsed = time.Since(t0)
	close(stop)
	wg.Wait()
	res.errs = append(res.errs, writerErrs...)

	for _, o := range res.obs {
		end := o.start.Add(o.lat)
		for _, iv := range refreshes {
			if o.start.Before(iv.to) && end.After(iv.from) {
				res.duringMS = append(res.duringMS, ms(o.lat))
				break
			}
		}
	}
	return res
}

// verify runs the after-window checks and returns the failures: sampled
// asks and one final read of every request against an uncached,
// no-pushdown manager over the same (edited) sources, then the restart
// check — flush, restore into a fresh system, and require the two fused
// worlds to be byte-equal under CanonicalText.
func (e *churnEnv) verify(p plan, genes int, samples []sampledRows) []string {
	var bad []string
	ref := oracleOver(e.sys)
	for _, s := range samples {
		if err := ref.checkRows(s.rq, s.rows); err != nil {
			bad = append(bad, err.Error())
		}
	}
	for _, rq := range p.prime {
		out, _, err := e.read(context.Background(), rq, liveSpan{})
		if err == nil && rq.ask != nil {
			err = ref.checkRows(rq, out.rows)
		} else if err == nil {
			err = ref.checkCount(rq, out.answers, "")
		}
		if err != nil {
			bad = append(bad, err.Error())
		}
	}

	if _, _, err := e.sys.Manager.FlushSnapshot(); err != nil {
		return append(bad, "flush: "+err.Error())
	}
	live, _, err := e.sys.Manager.FusedGraph()
	if err != nil {
		return append(bad, "live fused graph: "+err.Error())
	}
	if err := e.store.Close(); err != nil {
		return append(bad, "close store: "+err.Error())
	}
	sys2, st2, rr, err := newChurnSystem(genes, e.dir)
	if err != nil {
		return append(bad, "restart: "+err.Error())
	}
	defer st2.Close()
	if !rr.Restored {
		return append(bad, "restart fell back to a cold start: "+rr.Reason)
	}
	restored, _, err := sys2.Manager.FusedGraph()
	if err != nil {
		return append(bad, "restored fused graph: "+err.Error())
	}
	want := oem.CanonicalText(live, "ANNODA-GML", live.Root("ANNODA-GML"))
	got := oem.CanonicalText(restored, "ANNODA-GML", restored.Root("ANNODA-GML"))
	if got != want {
		bad = append(bad, fmt.Sprintf("restored world differs from the live one (%d vs %d bytes of canonical text)", len(got), len(want)))
	}
	return bad
}

// gather exposes the system's metric registry as the server's /metrics does.
func (e *churnEnv) gather() (scrape, error) {
	var buf bytes.Buffer
	if err := e.sys.Manager.Obs().Reg.Expose(&buf); err != nil {
		return nil, err
	}
	return parseScrape(&buf)
}
