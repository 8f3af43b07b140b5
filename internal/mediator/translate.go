package mediator

import (
	"sync"
	"sync/atomic"

	"repro/internal/gml"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/wrapper"
)

// Translate once per source version. Translating a source into the global
// vocabulary does not depend on the query, so the per-query pipeline does it
// once per (source model graph, mapping in force) and every later fetch
// filters and imports from the memoized population. The memo is keyed by
// pointer identity: wrapper.Refresh hands back a new model graph and PlugIn a
// new mapping, so an entry can be outdated but never wrong for the fetch that
// matched it, and -nocache keeps it for the same reason.

// translation is one source's translated population: every entity of one
// source-model graph under one mapping.
type translation struct {
	model   *oem.Graph         // the source version this was translated from
	mapping *gml.SourceMapping // the mapping it was translated under
	// graph holds the translated entities. A memoized translation's graph is
	// frozen and shared by every fetch that reads it; OML substructure shared
	// between entities is shared here too (see gml.Translator), and importing
	// an entity out of it copies that entity's subgraph alone.
	graph *oem.Graph
	// entities is parallel to model.Children(root, mapping.Entity).
	entities []oem.OID
}

// translationSlot is one source's memo entry: at most one live translation,
// replaced — never joined — by a newer one.
type translationSlot struct {
	// mu serializes this source's builds, so concurrent first fetches
	// translate once and the rest wait for it.
	mu  sync.Mutex
	cur atomic.Pointer[translation]

	built, memo *obs.Counter
	objects     *obs.Gauge
}

// translations is the per-source memo.
type translations struct {
	mu    sync.Mutex
	slots map[string]*translationSlot

	total   *obs.CounterVec
	objects *obs.GaugeVec
}

func (ts *translations) slot(source string) *translationSlot {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	sl := ts.slots[source]
	if sl == nil {
		sl = &translationSlot{
			built:   ts.total.With(source, translationBuilt),
			memo:    ts.total.With(source, translationMemo),
			objects: ts.objects.With(source),
		}
		if ts.slots == nil {
			ts.slots = map[string]*translationSlot{}
		}
		ts.slots[source] = sl
	}
	return sl
}

// drop forgets one source's translation.
func (sl *translationSlot) drop() {
	if sl.cur.Swap(nil) != nil {
		sl.objects.Set(0)
	}
}

// retain drops the translation of every source live does not name — a
// source unplugged or unregistered since the last fetch.
func (ts *translations) retain(live map[string]bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for source, sl := range ts.slots {
		if !live[source] {
			sl.drop()
		}
	}
}

// Translation outcomes, as Stats.Translation, the translate span's note and
// annoda_translate_total's outcome label report them.
const (
	translationMemo  = "memo"
	translationBuilt = "built"
)

// translated returns src's population under mp: the memoized translation
// when it was built from exactly this model and mapping, a fresh one
// otherwise. memoize stores (and freezes) a fresh translation, replacing the
// source's previous entry; without it the translation stays private to the
// caller — epoch builds keep the fused copy, so a second retained copy would
// only cost memory. A failed build is returned, never stored.
func (m *Manager) translated(w wrapper.Wrapper, mp *gml.SourceMapping, src *oem.Graph, memoize bool, tr *obs.Trace) (*translation, string, error) {
	name := w.Name()
	sl := m.translations.slot(name)
	t0 := obs.Now()
	hit := func() *translation {
		if tl := sl.cur.Load(); tl != nil && tl.model == src && tl.mapping == mp {
			return tl
		}
		return nil
	}
	tl := hit()
	if tl == nil && memoize {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		tl = hit() // a concurrent fetch may have built it while we waited
	}
	if tl != nil {
		sl.memo.Inc()
		if tr != nil {
			tr.SpanNote(obs.StageTranslate, t0, name+" "+translationMemo)
		}
		return tl, translationMemo, nil
	}
	if memoize {
		// The entry is for another source version: let the collector have
		// it while its replacement is built, not after.
		sl.drop()
	}
	tl, err := translateSource(name, mp, src)
	if err != nil {
		return nil, "", err
	}
	if memoize {
		// Pushed-down predicates read one attribute label off each entity
		// and fusion walks reference lists, so nothing here would use a
		// label index — a third of the population's retained bytes.
		tl.graph.FreezeUnindexed()
		sl.cur.Store(tl)
		sl.objects.Set(int64(tl.graph.Len()))
	}
	sl.built.Inc()
	if tr != nil {
		tr.SpanNote(obs.StageTranslate, t0, name+" "+translationBuilt)
	}
	return tl, translationBuilt, nil
}

// translateSource translates every entity of one source model.
func translateSource(source string, mp *gml.SourceMapping, src *oem.Graph) (*translation, error) {
	tl := &translation{model: src, mapping: mp, graph: oem.NewGraph()}
	ents := src.Children(src.Root(source), mp.Entity)
	tl.entities = make([]oem.OID, 0, len(ents))
	tr := gml.NewTranslator(tl.graph, src, mp)
	for _, e := range ents {
		te, err := tr.Entity(e)
		if err != nil {
			return nil, err
		}
		tl.entities = append(tl.entities, te)
	}
	return tl, nil
}
