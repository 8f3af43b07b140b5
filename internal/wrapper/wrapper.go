// Package wrapper translates native annotation sources into ANNODA-OML, the
// common local model expressed in OEM.
//
// "To match relevant data sources, they need to be expressed in the same
// model. As a result, we import these participating data sources into a
// common model called ANNODA-OML" (paper §3.2.2). Each wrapper knows one
// source's native storage (relational tables, flat files) and builds an OEM
// graph mirroring the source's own vocabulary — label names and value
// encodings are preserved, because resolving those differences is the
// mapping module's job, not the wrapper's.
//
// A wrapper also publishes a Schema: the label-level description of its OML
// model ("annotation database description" in Figure 1), which is what the
// MDSM matcher consumes.
package wrapper

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/oem"
)

// Wrapper adapts one annotation source to ANNODA-OML.
type Wrapper interface {
	// Name is the source name, e.g. "LocusLink".
	Name() string
	// EntityLabel is the label under which the source's records hang off
	// the model root, e.g. "Locus", "Term", "Entry".
	EntityLabel() string
	// Model returns the source's ANNODA-OML graph. The graph is built on
	// first use and cached; Refresh invalidates it.
	Model() (*oem.Graph, error)
	// Refresh discards the cached model so the next Model call rebuilds it
	// from native storage (the federated architecture's freshness
	// property: queries always see current source data).
	Refresh()
	// Version increments on every Refresh. Result caches fingerprint the
	// source set with it so a refreshed source invalidates stale entries.
	Version() uint64
}

// ContextModeler is the optional context-aware fetch path. Wrappers that
// implement it let callers bound a model build with a deadline or cancel
// it outright — the mediator's per-source fetch timeouts depend on this.
// Plain Wrappers without it fall back to the uncancellable Model.
type ContextModeler interface {
	// ModelCtx behaves like Wrapper.Model but honours ctx: a build
	// in flight when ctx is done returns ctx.Err() to this caller
	// (the build itself may complete and populate the cache for others).
	ModelCtx(ctx context.Context) (*oem.Graph, error)
}

// ModelOf fetches w's model through the context-aware path when the
// wrapper offers one, falling back to the plain Model otherwise. A ctx
// already done short-circuits without touching the source either way.
func ModelOf(ctx context.Context, w Wrapper) (*oem.Graph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cm, ok := w.(ContextModeler); ok {
		return cm.ModelCtx(ctx)
	}
	return w.Model()
}

// LabelInfo describes one label of an entity in an OML model.
type LabelInfo struct {
	Name       string
	Kind       oem.Kind
	Repeatable bool // more than one edge with this label on some entity
	Optional   bool // absent on some entities
}

// Schema is the label-level description of a wrapper's OML model — the
// input MDSM matches against the global schema.
type Schema struct {
	Source string
	Entity string
	Labels []LabelInfo
}

// Label returns the LabelInfo with the given name, or nil.
func (s *Schema) Label(name string) *LabelInfo {
	for i := range s.Labels {
		if s.Labels[i].Name == name {
			return &s.Labels[i]
		}
	}
	return nil
}

// InferSchema derives a Schema from an OML model by scanning every entity
// under the root: label kinds, repeatability and optionality. Nested
// complex children (e.g. "Links") contribute a single label of kind
// complex.
func InferSchema(g *oem.Graph, source, entity string) (Schema, error) {
	root := g.Root(source)
	if root == 0 {
		return Schema{}, fmt.Errorf("wrapper: model has no root %q", source)
	}
	entities := g.Children(root, entity)
	s := Schema{Source: source, Entity: entity}
	type stat struct {
		kind     oem.Kind
		presentN int
		repeated bool
		order    int
	}
	stats := map[string]*stat{}
	order := 0
	for _, eid := range entities {
		eo := g.Get(eid)
		if eo == nil || !eo.IsComplex() {
			continue
		}
		counts := map[string]int{}
		for _, r := range eo.Refs {
			counts[r.Label]++
			st, ok := stats[r.Label]
			if !ok {
				st = &stat{kind: g.KindOf(r.Target), order: order}
				order++
				stats[r.Label] = st
			}
			// A label seen with several kinds degrades to string — the
			// "similar concepts represented using different types"
			// irregularity.
			if k := g.KindOf(r.Target); k != st.kind {
				st.kind = oem.KindString
			}
		}
		for label, n := range counts {
			st := stats[label]
			st.presentN++
			if n > 1 {
				st.repeated = true
			}
		}
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].order < stats[names[j]].order })
	for _, n := range names {
		st := stats[n]
		s.Labels = append(s.Labels, LabelInfo{
			Name:       n,
			Kind:       st.kind,
			Repeatable: st.repeated,
			Optional:   st.presentN < len(entities),
		})
	}
	return s, nil
}

// buildErrMemoTTL is how long a failed build's error is served to new
// callers before another rebuild is attempted. It keeps a failing source
// from being rebuilt in a thundering herd (every query used to retry the
// build) while staying well below the mediator's retry backoff, so a
// deliberate retry gets a fresh attempt rather than the memo.
const buildErrMemoTTL = 150 * time.Millisecond

// cachedModel gives wrappers the shared build-once/refresh behaviour.
//
// The build runs OUTSIDE the mutex with singleflight semantics: exactly
// one caller builds while the rest wait on a done channel (or their ctx),
// and Refresh/Version stay responsive during a slow or hung build. The
// old shape held mu across build(), so one hung source serialized every
// concurrent Model caller behind it and blocked Refresh.
type cachedModel struct {
	mu        sync.Mutex
	graph     *oem.Graph
	build     func() (*oem.Graph, error)
	inflight  chan struct{} // non-nil while a build is running; closed when it finishes
	lastErr   error         // last build failure, memoized briefly
	lastErrAt time.Time
	ver       atomic.Uint64
}

func (c *cachedModel) get() (*oem.Graph, error) {
	return c.getCtx(context.Background())
}

func (c *cachedModel) getCtx(ctx context.Context) (*oem.Graph, error) {
	for {
		c.mu.Lock()
		if c.graph != nil {
			g := c.graph
			c.mu.Unlock()
			return g, nil
		}
		if c.lastErr != nil && obs.Since(c.lastErrAt) < buildErrMemoTTL {
			err := c.lastErr
			c.mu.Unlock()
			return nil, err
		}
		if done := c.inflight; done != nil {
			// Someone else is building: wait for them (or our deadline)
			// and re-check — the build may have failed or been
			// invalidated, so loop rather than trusting its result.
			c.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		// We are the builder.
		done := make(chan struct{})
		c.inflight = done
		startVer := c.ver.Load()
		c.mu.Unlock()

		g, err := c.build()

		c.mu.Lock()
		// Install only if no Refresh raced the build; a stale graph must
		// not resurrect into the cache. The builder still returns its own
		// (possibly stale) result — matching the old serialized
		// semantics, where a Model that began before the Refresh could
		// return the pre-refresh graph.
		if c.ver.Load() == startVer {
			if err != nil {
				c.lastErr = err
				c.lastErrAt = obs.Now()
			} else {
				c.graph = g
				c.lastErr = nil
			}
		}
		c.inflight = nil
		c.mu.Unlock()
		close(done)
		return g, err
	}
}

func (c *cachedModel) invalidate() {
	c.mu.Lock()
	c.graph = nil
	c.lastErr = nil
	c.mu.Unlock()
	c.ver.Add(1)
}

func (c *cachedModel) version() uint64 { return c.ver.Load() }

// Registry holds the wrappers plugged into an ANNODA instance. Plugging in
// a new source at runtime is the paper's second design requirement.
type Registry struct {
	mu       sync.RWMutex
	wrappers []Wrapper

	// schemaMu guards the inferred-schema cache. Schema inference scans
	// every entity of a model, so repeated Schemas() calls (statsz,
	// analyze endpoints) memoize per wrapper, keyed by the model version
	// the inference ran against.
	schemaMu sync.Mutex
	schemas  map[string]cachedSchema
}

// cachedSchema is one memoized inference result; stale the moment the
// wrapper's version moves.
type cachedSchema struct {
	version uint64
	schema  Schema
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add plugs a wrapper in. Duplicate names are rejected.
func (r *Registry) Add(w Wrapper) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ex := range r.wrappers {
		if ex.Name() == w.Name() {
			return fmt.Errorf("wrapper: source %q already registered", w.Name())
		}
	}
	r.wrappers = append(r.wrappers, w)
	return nil
}

// Remove unplugs a source; it reports whether it was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, w := range r.wrappers {
		if w.Name() == name {
			r.wrappers = append(r.wrappers[:i], r.wrappers[i+1:]...)
			// Drop the memoized schema: a different wrapper re-added under
			// this name must never inherit it (versions restart at zero).
			r.schemaMu.Lock()
			delete(r.schemas, name)
			r.schemaMu.Unlock()
			return true
		}
	}
	return false
}

// Get returns the wrapper for a source name, or nil.
func (r *Registry) Get(name string) Wrapper {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, w := range r.wrappers {
		if w.Name() == name {
			return w
		}
	}
	return nil
}

// All returns the wrappers in registration order.
func (r *Registry) All() []Wrapper {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Wrapper(nil), r.wrappers...)
}

// Names returns the registered source names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.wrappers))
	for i, w := range r.wrappers {
		out[i] = w.Name()
	}
	return out
}

// Schemas infers the schema of every registered wrapper. Results are
// memoized per wrapper, keyed by Version(), so repeated calls cost map
// lookups until a source refreshes; callers must treat the returned
// Schema values (and their Labels slices) as read-only.
func (r *Registry) Schemas() ([]Schema, error) {
	var out []Schema
	for _, w := range r.All() {
		ver := w.Version()
		name := w.Name()
		r.schemaMu.Lock()
		cs, ok := r.schemas[name]
		r.schemaMu.Unlock()
		if ok && cs.version == ver {
			out = append(out, cs.schema)
			continue
		}
		g, err := w.Model()
		if err != nil {
			return nil, fmt.Errorf("wrapper: %s: %v", name, err)
		}
		s, err := InferSchema(g, name, w.EntityLabel())
		if err != nil {
			return nil, err
		}
		// Stamp with the version read before Model(): if a Refresh raced
		// in between, the stamp mismatches the new version and the next
		// call re-infers — stale-forever is impossible, stale-now is not
		// cached.
		r.schemaMu.Lock()
		if r.schemas == nil {
			r.schemas = map[string]cachedSchema{}
		}
		r.schemas[name] = cachedSchema{version: ver, schema: s}
		r.schemaMu.Unlock()
		out = append(out, s)
	}
	return out, nil
}

// FragmentText renders the OML model of a single entity (record i) in the
// paper's Figure 3 notation — the E1 experiment output.
func FragmentText(w Wrapper, i int) (string, error) {
	g, err := w.Model()
	if err != nil {
		return "", err
	}
	root := g.Root(w.Name())
	ents := g.Children(root, w.EntityLabel())
	if i < 0 || i >= len(ents) {
		return "", fmt.Errorf("wrapper: %s has no entity %d", w.Name(), i)
	}
	return oem.TextString(g, w.Name(), ents[i]), nil
}
