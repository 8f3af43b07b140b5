// Package fused owns ANNODA's integrated world: the fusion of the wrapped
// sources' translated populations into one ANNODA-GML graph, the
// reconciliation of the values they disagree on, the bookkeeping that lets
// a source's delta.ChangeSet be patched into the fused graph, the
// attribute provenance masks for pruned queries are made from, and the
// checkpoint payload that stores all of it.
//
// A World is immutable once sealed: Build, Patch and Checkpoint.Seal are
// the only ways to get one, its graph is frozen, and no method changes what
// it holds (MaskFor only remembers the masks it made).
// Patch returns a patched copy and leaves its receiver untouched, so any
// number of readers may hold and evaluate against a World with no lock.
// The per-query pipeline, which needs a private graph and no bookkeeping,
// calls Fuse instead.
package fused

import (
	"sync"
	"time"

	"repro/internal/delta"
	"repro/internal/gml"
	"repro/internal/oem"
)

// Population is one source's translated entities, ready to fuse. Graph is
// read, never written. Hashes holds the structural fingerprint of each
// entity's source-model form (delta.HashEntity), parallel to Entities; Build
// needs it to patch the world later, Fuse ignores it.
type Population struct {
	Source   string
	Concept  string
	Graph    *oem.Graph
	Entities []oem.OID
	Hashes   []uint64
}

// Config is what one fusion needs besides the populations.
type Config struct {
	Policy Policy
	// Sources lists every registered source in registration order: under
	// PolicyPreferPrimary an earlier source wins.
	Sources []string
	// Workers is the fusion's shard count (at least 1, at most 32); it
	// bounds concurrency and never changes the fused world.
	Workers int
	// DropUnlinked names the link concepts whose entities no gene links are
	// left out of the fused graph (the semi-join): a query that reaches the
	// concept only through gene links cannot observe them.
	DropUnlinked map[string]bool
}

// Fuse fuses the populations into a private, mutable graph, without the
// bookkeeping a World records: the per-query pipeline's fusion.
func Fuse(pops []*Population, cfg Config) (*oem.Graph, []Conflict, error) {
	st, err := fuseInto(&cfg, pops, false)
	if err != nil {
		return nil, nil, err
	}
	return st.graph, st.conflicts, nil
}

// Build fuses the populations into a sealed World that Patch can keep up
// to date. Every population must carry Hashes.
func Build(pops []*Population, cfg Config) (*World, error) {
	st, err := fuseInto(&cfg, pops, true)
	if err != nil {
		return nil, err
	}
	return seal(st), nil
}

// World is one sealed fused world: the frozen graph, the fusion bookkeeping
// behind it and the provenance of its reconciled gene attributes. masks
// memoizes MaskFor by hidden set; it is the one thing written after sealing,
// and only ever added to.
type World struct {
	st    *fuseState
	prov  *provenance
	masks sync.Map // string -> *oem.Mask
}

// seal freezes st's graph and computes its provenance. st is never written
// again.
func seal(st *fuseState) *World {
	st.graph.Freeze()
	return &World{st: st, prov: provenanceOf(st)}
}

// Graph is the frozen fused graph.
func (w *World) Graph() *oem.Graph { return w.st.graph }

// Policy is the reconciliation policy the world was fused under.
func (w *World) Policy() Policy { return w.st.policy }

// Conflicts lists the reconciled disagreements, in fusion order for a built
// world and in (fusion key, label) order once a patch changed them. The
// slice is shared: callers must not write it.
func (w *World) Conflicts() []Conflict { return w.st.conflicts }

// HashCounts returns the multiset of source-entity hashes fused into the
// world for one source — exactly the old-model hash multiset a structural
// diff needs, so a refresh never re-hashes the model it is replacing.
func (w *World) HashCounts(source string) map[uint64]int {
	out := map[uint64]int{}
	for h, list := range w.st.ents[source] {
		out[h] += len(list)
	}
	for h, owners := range w.st.geneParts[source] {
		out[h] += len(owners)
	}
	return out
}

// Patch applies one source's ChangeSet to a deep copy of the world and
// seals the copy; w itself is left as it was. An error means the
// bookkeeping and the change set disagree, and the copy is dropped.
func (w *World) Patch(cs *delta.ChangeSet, mp *gml.SourceMapping) (*World, error) {
	st := w.st.clone()
	if err := st.apply(cs, mp); err != nil {
		return nil, err
	}
	return seal(st), nil
}

// SnapshotInfo summarizes a world for operators.
type SnapshotInfo struct {
	Objects int
	Genes   int
	// Entities counts resident source entities by source name (gene parts
	// and link-concept entities combined).
	Entities  map[string]int
	Conflicts int
}

// Info summarizes the world.
func (w *World) Info() SnapshotInfo {
	info := SnapshotInfo{
		Objects:   w.st.graph.Len(),
		Genes:     len(w.st.genes),
		Entities:  map[string]int{},
		Conflicts: len(w.st.conflicts),
	}
	for src, byHash := range w.st.ents {
		for _, list := range byHash {
			info.Entities[src] += len(list)
		}
	}
	for src, byHash := range w.st.geneParts {
		for _, owners := range byHash {
			info.Entities[src] += len(owners)
		}
	}
	return info
}

// BuildStats is how the mediator fetched and fused a world. A checkpoint
// stores it beside the world, so a restored epoch reports what the saved
// one did.
type BuildStats struct {
	SourcesQueried    []string
	SourcesPruned     []string
	Fetched           map[string]int
	Kept              map[string]int
	PushdownUsed      bool
	Parallel          bool
	PushdownFallbacks int
	FetchTime         time.Duration
	FuseTime          time.Duration
}

// Checkpoint is a decoded checkpoint payload: the world it stores, not yet
// sealed, so a WAL replay can Apply its change sets in place — no clone per
// frame — before Seal makes it a World.
type Checkpoint struct {
	// FP is the source fingerprint the world was saved under.
	FP    uint64
	Stats BuildStats
	st    *fuseState
}

// Policy is the reconciliation policy the stored world was fused under.
func (c *Checkpoint) Policy() Policy { return c.st.policy }

// Sources lists, sorted, the sources the stored world was fused from.
func (c *Checkpoint) Sources() []string { return sortedKeys(c.st.priority) }

// Apply patches one replayed ChangeSet into the stored world in place. After
// an error the checkpoint is half-applied and must be dropped.
func (c *Checkpoint) Apply(cs *delta.ChangeSet, mp *gml.SourceMapping) error {
	return c.st.apply(cs, mp)
}

// Seal seals the stored world. The checkpoint must not be used after.
func (c *Checkpoint) Seal() *World { return seal(c.st) }
