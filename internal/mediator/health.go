package mediator

// Source fault tolerance: every wrapper fetch funnels through sourceModel,
// which consults the source's circuit breaker, bounds the build with the
// configured per-source deadline, and retries transient failures before
// charging the breaker. ProbeSource is the recovery path: a breaker-gated
// fetch that, on success, folds a missing source back into the serving
// epoch as a pure-upsert delta and announces it on the change feed.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/delta"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/wrapper"
)

// sourceModel fetches one source's ANNODA-OML model through the fault-
// tolerance funnel: breaker admission, per-attempt deadline, bounded
// retries with doubling backoff. Only the final failure is charged to the
// breaker (retries are counted separately), and a fetch refused by an open
// breaker returns *health.DownError without charging anything — the
// breaker's own failure count must reflect observed source behaviour, not
// the mediator declining to look.
func (m *Manager) sourceModel(ctx context.Context, w wrapper.Wrapper, tr *obs.Trace) (*oem.Graph, error) {
	name := w.Name()
	br := m.health.For(name)
	ok, probe := br.Allow()
	if !ok {
		_, retryIn := br.Down()
		return nil, &health.DownError{Source: name, RetryIn: retryIn}
	}
	retries := m.opts.FetchRetries
	if probe {
		// A half-open probe is a cheap question ("are you back?"), not a
		// best-effort fetch; one attempt, straight answer.
		retries = 0
	}
	backoff := m.opts.FetchBackoff
	if backoff <= 0 {
		backoff = DefaultFetchBackoff
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		g, err := m.fetchModel(ctx, w)
		if err == nil {
			br.Success()
			return g, nil
		}
		lastErr = err
		if attempt >= retries || ctx.Err() != nil {
			break
		}
		br.Retry()
		t0 := obs.Now()
		tm := time.NewTimer(backoff)
		select {
		case <-tm.C:
		case <-ctx.Done():
			tm.Stop()
		}
		tr.SpanNote(obs.StageRetry, t0, name)
		backoff *= 2
	}
	br.Failure(lastErr)
	return nil, lastErr
}

// fetchModel runs one build attempt under the per-source deadline.
func (m *Manager) fetchModel(ctx context.Context, w wrapper.Wrapper) (*oem.Graph, error) {
	if m.opts.FetchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.FetchTimeout)
		defer cancel()
	}
	return wrapper.ModelOf(ctx, w)
}

// SourceStatus is one source's health as the manager reports it: breaker
// state plus whether the currently served epoch is missing the source's
// data (the two can differ — a source may have recovered while the epoch
// that excluded it is still being patched, or be failing while a complete
// pre-outage epoch still serves).
type SourceStatus struct {
	health.SourceHealth
	// MissingFromEpoch: the serving fused epoch was built without this
	// source's data.
	MissingFromEpoch bool `json:"missing_from_epoch"`
}

// SourceHealth reports every registered source's breaker state and epoch
// membership — the /statsz health block, /readyz, and `annoda sources`
// all render this.
func (m *Manager) SourceHealth() []SourceStatus {
	var degraded []string
	if ep := m.epoch.Load(); ep != nil {
		degraded = ep.degraded
	}
	names := m.reg.Names()
	out := make([]SourceStatus, 0, len(names))
	for _, name := range names {
		st := SourceStatus{SourceHealth: m.health.For(name).Snapshot()}
		for _, d := range degraded {
			if d == name {
				st.MissingFromEpoch = true
			}
		}
		out = append(out, st)
	}
	return out
}

// Readiness is the manager's serving-ability verdict, computed with the
// same strictness knobs that govern degraded-mode fusion (MinSources,
// RequireSources). /readyz serializes it verbatim.
type Readiness struct {
	// Status: "ready" (every source available), "degraded" (some sources
	// unavailable but the configured floor still holds — the manager is
	// answering from the healthy subset), or "down" (a required source is
	// unavailable, or too few survive to fuse at all).
	Status  string         `json:"status"`
	Sources []SourceStatus `json:"sources"`
}

// Readiness classifies current source health for load-balancer consumption.
// A source counts as unavailable when its breaker is open or the serving
// epoch was built without it; "down" mirrors exactly the conditions under
// which classifyFetchErrors would fail a fetch, so a "degraded" verdict
// promises that queries are being answered.
func (m *Manager) Readiness() Readiness {
	r := Readiness{Status: "ready", Sources: m.SourceHealth()}
	unavailable := 0
	for _, sh := range r.Sources {
		if sh.StateCode != int(health.StateDown) && !sh.MissingFromEpoch {
			continue
		}
		unavailable++
		if m.opts.MinSources <= 0 || m.sourceRequired(sh.Source) {
			r.Status = "down"
		}
	}
	if unavailable == 0 {
		return r
	}
	if r.Status != "down" {
		r.Status = "degraded"
		if len(r.Sources)-unavailable < m.opts.MinSources {
			r.Status = "down"
		}
	}
	return r
}

// ProbeSource makes one breaker-gated attempt to fetch a source's model —
// the half-open recovery check the server's probe loop drives. On success
// the source's breaker closes (invalidating, via the recovery generation,
// every answer computed without the source) and, when the serving epoch
// was built without the source, its population is folded back in as a
// delta and a source-up feed event is published. A probe refused by the
// breaker's backoff window returns *health.DownError; callers treat it as
// "not yet", not as a source failure.
func (m *Manager) ProbeSource(ctx context.Context, name string) error {
	w := m.reg.Get(name)
	if w == nil {
		return fmt.Errorf("mediator: source %q not registered", name)
	}
	op := m.beginOp(ctx, "probe", name)
	g, err := m.sourceModel(ctx, w, op.tr)
	op.tr.SpanNote(obs.StageProbe, op.t0, name)
	if err == nil {
		m.readmitSource(name, w, g, op.tr)
	}
	m.endOp(op, nil, nil, err)
	return err
}

// readmitSource folds a recovered source's model back into the serving
// epoch when that epoch was built without it. The epoch records no
// entities (hence no hashes) for a missing source, so diffing the fresh
// model against its recorded counts yields pure upserts — the complete
// population — and the ordinary publishDelta step re-admits it (the
// too-large bound does not apply: one source's population is still far
// cheaper than rebuilding the multi-source world). When the serving epoch
// already contains the source (a query-path success recovered it first, or
// a racing rebuild beat us) there is nothing to do: the fingerprint moved
// with the recovery generation and the lazy rebuild path covers it.
func (m *Manager) readmitSource(name string, w wrapper.Wrapper, g *oem.Graph, tr *obs.Trace) {
	mp := m.gl.MappingFor(name)
	if m.cache == nil || mp == nil {
		return
	}
	// The breaker already bumped the recovery generation; hold the gate
	// until the patched epoch is out (see gateRefresh).
	release := m.gateRefresh()
	defer release()
	ep := m.epoch.Load()
	if ep == nil || !containsSource(ep.degraded, name) {
		return
	}
	cs, err := delta.DiffAgainst(ep.fs.hashCounts(name), g, name, w.EntityLabel())
	if err == nil {
		_, _, err = m.publishDelta(cs, mp, ep.fp, m.sourceFingerprint(), release, tr)
	}
	if err != nil {
		m.rebuildFallback(name, "re-admission: "+err.Error(), release, tr)
	}
}

func containsSource(list []string, name string) bool {
	for _, s := range list {
		if s == name {
			return true
		}
	}
	return false
}

// dropSource returns list without name (preserving order); nil when the
// result is empty so a fully recovered epoch carries no degraded set.
func dropSource(list []string, name string) []string {
	var out []string
	for _, s := range list {
		if s != name {
			out = append(out, s)
		}
	}
	return out
}
