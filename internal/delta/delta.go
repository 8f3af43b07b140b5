// Package delta implements incremental change feeds for annotation sources:
// the machinery that lets a source refresh propagate as a ChangeSet —
// per-entity upserts and deletions — instead of forcing the mediator to
// rebuild its fused view of the world from scratch.
//
// Real annotation sources are slowly changing and mostly-append (TaSer
// refreshes sequence annotation incrementally; THEA tracks periodic
// ontology releases), so the cost of absorbing a refresh should be
// proportional to what actually changed. Diff structurally compares the
// old and new ANNODA-OML models of a source, so every wrapper gets deltas
// for free: entities are fingerprinted by a recursive structural hash and
// matched as a multiset, making an in-place record edit appear as one
// deletion plus one upsert.
//
// The mediator consumes ChangeSets to patch its shared fused snapshot in
// place and to invalidate only the cached results whose concepts a change
// touches (see internal/mediator).
package delta

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/oem"
)

// Change identifies one changed entity. For upserts, OID is the entity's
// oid in the new model (ChangeSet.Graph); for deletions the entity no
// longer exists and Hash alone identifies it — consumers key their
// bookkeeping by the same structural hash.
type Change struct {
	OID  oem.OID
	Hash uint64
}

// ChangeSet describes what one source refresh changed, at entity
// granularity. A modified entity appears as a deletion of its old form
// plus an upsert of its new form.
type ChangeSet struct {
	// Source and Entity name the wrapper and its entity label.
	Source string
	Entity string
	// FromVersion and ToVersion bracket the wrapper versions the delta
	// spans (wrapper.Wrapper.Version values).
	FromVersion uint64
	ToVersion   uint64
	// Graph is the new model; Upserted oids resolve in it.
	Graph *oem.Graph
	// Upserted lists entities present in the new model but not the old
	// (new or modified). Deleted lists entities present only in the old.
	Upserted []Change
	Deleted  []Change
	// Total is the entity count of the new model — the denominator for
	// deciding whether a delta is small enough to be worth applying.
	Total int
}

// Size returns the number of entity-level changes the set carries.
func (cs *ChangeSet) Size() int { return len(cs.Upserted) + len(cs.Deleted) }

// Empty reports whether the refresh changed nothing.
func (cs *ChangeSet) Empty() bool { return cs.Size() == 0 }

// Fraction returns the changed fraction of the source: the number of
// distinct records affected, relative to the larger of the old and new
// entity populations. An in-place modification surfaces in the set as one
// deletion plus one upsert but counts as ONE changed record — so
// max(upserts, deletes) is the affected-record count (k modifications
// give k/k, k additions give k/0, and mixes are dominated by the larger
// side). An empty source with a non-empty delta counts as fully changed.
func (cs *ChangeSet) Fraction() float64 {
	changed := max(len(cs.Upserted), len(cs.Deleted))
	if changed == 0 {
		return 0
	}
	// The old population is recoverable from the new one: unchanged
	// entities plus the deleted ones.
	oldTotal := cs.Total - len(cs.Upserted) + len(cs.Deleted)
	denom := max(cs.Total, oldTotal)
	if denom == 0 {
		return math.Inf(1)
	}
	return float64(changed) / float64(denom)
}

// HashEntity computes a structural fingerprint of the subtree rooted at
// id: labels, kinds and values contribute; oids do not. Two entities hash
// equal exactly when a structural copy (Import, TranslateEntity) of one
// would be indistinguishable from the other. References are hashed in
// order — wrapper model builders are deterministic, so order carries no
// noise. Cycles are cut with a per-path marker.
func HashEntity(g *oem.Graph, id oem.OID) uint64 {
	h := fnv.New64a()
	hashObject(h, g, id, make(map[oem.OID]bool))
	return h.Sum64()
}

type hasher interface {
	Write([]byte) (int, error)
}

func hashObject(h hasher, g *oem.Graph, id oem.OID, onPath map[oem.OID]bool) {
	o := g.Get(id)
	if o == nil {
		h.Write([]byte{0xFF}) // dangling marker
		return
	}
	if onPath[id] {
		h.Write([]byte{0xFE}) // cycle marker
		return
	}
	h.Write([]byte{byte(o.Kind)})
	switch o.Kind {
	case oem.KindInt:
		writeUint64(h, uint64(o.Int))
	case oem.KindReal:
		writeUint64(h, math.Float64bits(o.Real))
	case oem.KindString, oem.KindURL:
		writeString(h, o.Str)
	case oem.KindBool:
		if o.Bool {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	case oem.KindGif:
		writeUint64(h, uint64(len(o.Raw)))
		h.Write(o.Raw)
	case oem.KindComplex:
		onPath[id] = true
		writeUint64(h, uint64(len(o.Refs)))
		for _, r := range o.Refs {
			writeString(h, r.Label)
			hashObject(h, g, r.Target, onPath)
		}
		delete(onPath, id)
	}
}

func writeUint64(h hasher, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
}

func writeString(h hasher, s string) {
	writeUint64(h, uint64(len(s)))
	h.Write([]byte(s))
}

// DiffAgainst computes the ChangeSet between a recorded hash multiset
// (entity hash -> count, describing the old population) and a new model.
// Consumers that already track per-entity hashes — the mediator's fused
// snapshot does — diff a refresh in one pass over the new model, never
// re-hashing the old one. oldCounts is consumed (mutated); pass a copy if
// it must survive. Deleted changes carry only hashes (the old entities no
// longer exist anywhere).
func DiffAgainst(oldCounts map[uint64]int, new *oem.Graph, source, entity string) (*ChangeSet, error) {
	newRoot := new.Root(source)
	if newRoot == 0 {
		return nil, fmt.Errorf("delta: new model has no root %q", source)
	}
	cs := &ChangeSet{Source: source, Entity: entity, Graph: new}
	for _, e := range new.Children(newRoot, entity) {
		cs.Total++
		h := HashEntity(new, e)
		if oldCounts[h] > 0 {
			oldCounts[h]--
			continue
		}
		cs.Upserted = append(cs.Upserted, Change{OID: e, Hash: h})
	}
	for h, n := range oldCounts {
		for i := 0; i < n; i++ {
			cs.Deleted = append(cs.Deleted, Change{Hash: h})
		}
	}
	return cs, nil
}

// Diff computes the ChangeSet between two models of one source by
// structural comparison of the entities under the root's entity label.
// Entities are matched as a multiset of structural hashes, so identical
// duplicate records pair up by count and an edited record surfaces as one
// deletion plus one upsert. FromVersion/ToVersion are left zero — the
// caller brackets them with the wrapper versions it observed.
func Diff(old, new *oem.Graph, source, entity string) (*ChangeSet, error) {
	oldRoot := old.Root(source)
	if oldRoot == 0 {
		return nil, fmt.Errorf("delta: old model has no root %q", source)
	}
	newRoot := new.Root(source)
	if newRoot == 0 {
		return nil, fmt.Errorf("delta: new model has no root %q", source)
	}
	cs := &ChangeSet{Source: source, Entity: entity, Graph: new}

	// Multiset of old entities by hash, hashed once; duplicate entities
	// are counted, not collapsed.
	var oldEnts []Change
	counts := map[uint64]int{}
	for _, e := range old.Children(oldRoot, entity) {
		h := HashEntity(old, e)
		oldEnts = append(oldEnts, Change{OID: e, Hash: h})
		counts[h]++
	}
	for _, e := range new.Children(newRoot, entity) {
		cs.Total++
		h := HashEntity(new, e)
		if counts[h] > 0 {
			counts[h]-- // matched: unchanged entity
			continue
		}
		cs.Upserted = append(cs.Upserted, Change{OID: e, Hash: h})
	}
	// Whatever the new model did not claim was deleted. The counts left
	// over say how many entities of each hash vanished; attributing them to
	// the first unmatched occurrences keeps the order deterministic.
	for _, c := range oldEnts {
		if counts[c.Hash] > 0 {
			counts[c.Hash]--
			cs.Deleted = append(cs.Deleted, c)
		}
	}
	return cs, nil
}
