// Package stats maintains the mediator's per-source statistics table, which
// /statsz (source_stats) and the annoda_source_* gauges expose.
//
// The table is fed from three places. Refresh/delta time sets the entity
// count a source last reported; fuse time sets the per-label entity
// cardinalities observed in the fused world; and every pushdown evaluation
// observes (fetched, kept) per source and predicate shape. Fetch latency is
// tracked as an EWMA so one slow probe does not dominate the estimate.
//
// Design constraints, shared with internal/obs:
//
//   - Nil-inert: every method is safe on a nil *Table, so instrumented call
//     sites stay unconditional and cost one predictable branch when the
//     table is off.
//   - No clock reads: durations are passed in by the caller (the mediator
//     measures with obs.Now); the package itself never consults wall time.
package stats

import (
	"sort"
	"sync"
	"time"
)

// ewmaAlpha is the smoothing factor for the fetch-latency EWMA: each new
// observation contributes 20%, so the estimate settles within ~10 fetches
// without thrashing on a single outlier.
const ewmaAlpha = 0.2

// PredicateStats is the observed outcome of pushing one predicate shape to
// one source, summed over evaluations.
type PredicateStats struct {
	Shape   string `json:"shape"`   // canonical predicate rendering
	Fetched int64  `json:"fetched"` // entities the source scanned
	Kept    int64  `json:"kept"`    // entities that survived the predicate
}

// SourceStats is a point-in-time copy of one source's statistics.
type SourceStats struct {
	Source          string           `json:"source"`
	Entities        int              `json:"entities"`          // source population at last refresh
	Labels          map[string]int   `json:"labels,omitempty"`  // label -> entity cardinality at last fuse
	FetchCount      int64            `json:"fetch_count"`       // fetches observed
	FetchEWMAMicros int64            `json:"fetch_ewma_micros"` // smoothed fetch latency
	Predicates      []PredicateStats `json:"predicates,omitempty"`
}

// Table is the mutable statistics table. The zero value is not useful —
// construct with New — but a nil *Table is: every method no-ops, so the
// mediator wires observation sites unconditionally.
type Table struct {
	mu  sync.RWMutex
	src map[string]*sourceEntry
}

type sourceEntry struct {
	entities   int
	labels     map[string]int
	fetches    int64
	ewmaMicros float64
	preds      map[string]*PredicateStats
}

// New returns an empty statistics table.
func New() *Table {
	return &Table{src: make(map[string]*sourceEntry)}
}

func (t *Table) entry(source string) *sourceEntry {
	e := t.src[source]
	if e == nil {
		e = &sourceEntry{preds: make(map[string]*PredicateStats)}
		t.src[source] = e
	}
	return e
}

// SetEntities records the source's total population, as reported at
// refresh/delta time.
func (t *Table) SetEntities(source string, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entry(source).entities = n
}

// SetLabels replaces the source's per-label entity cardinalities, as
// computed at fuse time. The map is copied.
func (t *Table) SetLabels(source string, labels map[string]int) {
	if t == nil {
		return
	}
	cp := make(map[string]int, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entry(source).labels = cp
}

// ObserveFetch folds one fetch's wall-clock duration into the source's
// latency EWMA. The caller measures; this package never reads a clock.
func (t *Table) ObserveFetch(source string, d time.Duration) {
	if t == nil {
		return
	}
	micros := float64(d.Microseconds())
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(source)
	e.fetches++
	if e.fetches == 1 {
		e.ewmaMicros = micros
	} else {
		e.ewmaMicros += ewmaAlpha * (micros - e.ewmaMicros)
	}
}

// ObservePushdown accumulates one pushdown evaluation's (fetched, kept)
// outcome under the predicate's canonical shape.
func (t *Table) ObservePushdown(source, shape string, fetched, kept int) {
	if t == nil || fetched < 0 || kept < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entry(source)
	p := e.preds[shape]
	if p == nil {
		p = &PredicateStats{Shape: shape}
		e.preds[shape] = p
	}
	p.Fetched += int64(fetched)
	p.Kept += int64(kept)
}

// Snapshot copies the whole table, sources sorted by name and predicate
// shapes sorted within each source — the stable order /statsz and the
// metrics collector expose.
func (t *Table) Snapshot() []SourceStats {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]SourceStats, 0, len(t.src))
	for name, e := range t.src {
		s := SourceStats{
			Source:          name,
			Entities:        e.entities,
			FetchCount:      e.fetches,
			FetchEWMAMicros: int64(e.ewmaMicros),
		}
		if len(e.labels) > 0 {
			s.Labels = make(map[string]int, len(e.labels))
			for k, v := range e.labels {
				s.Labels[k] = v
			}
		}
		for _, p := range e.preds {
			s.Predicates = append(s.Predicates, *p)
		}
		sort.Slice(s.Predicates, func(i, j int) bool { return s.Predicates[i].Shape < s.Predicates[j].Shape })
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}
