package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/lorel"
	"repro/internal/match"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/snapstore"
)

// serverLikeSystem assembles an in-process system the way annoda-server's
// main does with default flags.
func serverLikeSystem(c *datagen.Corpus) (*core.System, error) {
	sys, err := core.New(c, mediator.Options{Obs: obs.New(obs.Config{})})
	if err != nil {
		return nil, err
	}
	return sys, sys.PlugInProteins()
}

// tracePass replays the first traceK requests of the workload's seeded
// list, one goroutine, against an in-process system, recording one root
// span per request and one child span per call into a layer's public
// function. The instrumentation lives here, around the calls; nothing
// inside the program is touched. It then times the set-up and storage
// calls (source models, global model, codec, checkpoint, restore, reindex)
// the same way.
func tracePass(cfg runConfig, c *datagen.Corpus, p plan, tr *tracer) error {
	ctx := context.Background()
	sys, err := serverLikeSystem(c)
	if err != nil {
		return err
	}

	setup := tr.root("setup")
	for _, w := range sys.Registry.All() {
		w.Refresh() // drop the cached model so that Model builds it
		sp := setup.child("wrapper.Model", "wrapper")
		_, err := w.Model()
		sp.end(w.Name())
		if err != nil {
			return err
		}
	}
	sp := setup.child("gml.Build", "gml")
	_, err = gml.Build(sys.Registry, match.Options{})
	sp.end("")
	if err != nil {
		return err
	}
	sp = setup.child("Resolver.Reindex", "navigate")
	err = sys.Resolver.Reindex()
	sp.end("")
	if err != nil {
		return err
	}
	setup.end("")

	for _, rq := range p.prime {
		if err := replay(ctx, sys, nil, rq, liveSpan{}); err != nil {
			return err
		}
	}
	fused, _, err := sys.Manager.FusedGraph()
	if err != nil {
		return err
	}
	for i := 0; i < cfg.prof.traceK; i++ {
		rq := p.at(i)
		root := tr.root(rq.class)
		err := replay(ctx, sys, fused, rq, root)
		root.end("")
		if err != nil {
			return err
		}
	}
	return traceStorage(cfg, c, sys, fused, tr)
}

// replay executes one request layer by layer under root. The layers of a
// request are called one after another as separate calls, so each span is
// that layer's whole cost for this request: for an ask, ToLorel, then the
// mediator query it compiles to, then AskCtx — which by then is a cache
// hit, so AskCtx minus the other two is the view build.
func replay(ctx context.Context, sys *core.System, fused *oem.Graph, rq request, root liveSpan) error {
	query := func(src string) (*lorel.Result, error) {
		sp := root.childAllocs("Manager.QueryStringCtx", "mediator")
		res, st, err := sys.Manager.QueryStringCtx(ctx, src)
		if err != nil {
			sp.end("error")
			return nil, err
		}
		if !st.CacheHit {
			// What the mediator itself reports for a miss, as child spans.
			// On the epoch route fetch and fuse describe the epoch's
			// construction, not this request.
			at := sp.s.StartNS
			if !st.SnapshotUsed {
				at = sp.interval("Stats.FetchTime", "wrapper", at, st.FetchTime)
				at = sp.interval("Stats.FuseTime", "mediator", at, st.FuseTime)
			}
			sp.interval("Stats.EvalTime", "lorel", at, st.EvalTime)
		}
		sp.end(missNote(st))
		return res, nil
	}

	if rq.ask != nil {
		sp := root.child("core.ToLorel", "core")
		src, err := sys.ToLorel(*rq.ask)
		sp.end("")
		if err != nil {
			return err
		}
		if _, err := query(src); err != nil {
			return err
		}
		sp = root.childAllocs("System.AskCtx", "core")
		_, st, err := sys.AskCtx(ctx, *rq.ask)
		if err != nil {
			sp.end("error")
			return err
		}
		sp.end(missNote(st))
		return nil
	}

	sp := root.child("lorel.Parse", "lorel")
	q, err := lorel.Parse(rq.query)
	sp.end("")
	if err != nil {
		return err
	}
	sp = root.child("lorel.Compile", "lorel")
	plan, err := lorel.Compile(q)
	sp.end("")
	if err != nil {
		return err
	}
	res, err := query(rq.query)
	if err != nil {
		return err
	}
	sp = root.child("oem.TextString", "oem")
	text := oem.TextString(res.Graph, "answer", res.Answer)
	sp.attr("bytes", float64(len(text)))
	sp.end("")
	if fused == nil {
		return nil
	}
	sp = root.childAllocs("Plan.Eval", "lorel")
	direct, err := plan.Eval(fused)
	if err != nil {
		sp.end("error")
		return err
	}
	sp.attr("rows", float64(direct.Size()))
	sp.end("")
	return nil
}

// traceStorage times the codec on the fused world, a checkpoint of it, a
// restore of that checkpoint into a fresh system, under one root span.
func traceStorage(cfg runConfig, c *datagen.Corpus, sys *core.System, fused *oem.Graph, tr *tracer) error {
	root := tr.root("storage")
	defer root.end("")

	var buf bytes.Buffer
	sp := root.child("oem.EncodeBinary", "oem")
	err := oem.EncodeBinary(&buf, fused)
	sp.attr("objects", float64(fused.Len()))
	sp.attr("bytes", float64(buf.Len()))
	sp.end("")
	if err != nil {
		return err
	}
	sp = root.child("oem.DecodeBinary", "oem")
	_, err = oem.DecodeBinary(&buf)
	sp.end("")
	if err != nil {
		return err
	}
	sp = root.child("oem.Clone", "oem")
	fused.Clone()
	sp.end("")

	bd, err := buildDir(cfg.root)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(bd, "trace-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		return err
	}
	sp = root.child("Manager.SaveSnapshot", "snapstore")
	saved, err := sys.Manager.SaveSnapshot()
	if err != nil {
		sp.end("error")
		return err
	}
	sp.attr("bytes", float64(saved.Bytes))
	sp.end("")

	fresh, err := serverLikeSystem(c)
	if err != nil {
		return err
	}
	st2, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		return err
	}
	defer st2.Close()
	if err := fresh.Manager.EnablePersistence(st2, mediator.PersistPolicy{}); err != nil {
		return err
	}
	sp = root.child("Manager.LoadSnapshot", "snapstore")
	rr, err := fresh.Manager.LoadSnapshot()
	sp.end("")
	if err != nil {
		return err
	}
	if !rr.Restored {
		return fmt.Errorf("trace pass: restore fell back to a cold start: %s", rr.Reason)
	}
	return nil
}
