package oem

import "fmt"

// This file implements the immutability and bulk-merge primitives behind
// the mediator's snapshot epochs and parallel sharded fusion:
//
//   - Freeze publishes a graph as immutable. Frozen reads skip the RWMutex
//     entirely (one atomic flag load instead of a read-lock RMW on a shared
//     cache line), which is what lets many goroutines evaluate compiled
//     plans against one shared snapshot without contending.
//   - Clone produces a mutable deep copy that preserves oids, so fusion
//     bookkeeping recorded against the original (which addresses objects by
//     oid) stays valid against the copy. Epoch maintenance patches a clone
//     and publishes it while readers keep the frozen original.
//   - Absorb merges a finished builder graph into this one by offsetting
//     its oids — the cheap deterministic tail of a parallel fusion, where
//     each shard built its objects in a private graph.

// Freeze makes the graph immutable: the label index is built (so indexed
// traversal never needs the upgrade path), and from then on read accessors
// skip locking while mutating methods panic. Freezing is one-way and
// idempotent. Concurrent readers during the flip are safe — they either
// take the read lock (still functional) or the lock-free path.
func (g *Graph) Freeze() {
	if g.frozen.Load() {
		return
	}
	g.EnsureLabelIndex()
	// Flip under the write lock so no mutator is mid-flight when lock-free
	// readers start skipping the mutex.
	g.mu.Lock()
	g.frozen.Store(true)
	g.mu.Unlock()
}

// FreezeUnindexed is Freeze without the label index: LabelIndex reports
// none, so path evaluation scans reference lists instead. It suits a graph
// read one label deep from a known set of objects (a translated source
// population under pushed-down predicates), where a map per complex object
// would cost more memory than the short scans cost time.
func (g *Graph) FreezeUnindexed() {
	g.mu.Lock()
	if !g.frozen.Load() {
		g.labels, g.labelsDirty = nil, nil
		g.frozen.Store(true)
	}
	g.mu.Unlock()
}

// mustMutable guards every mutating method: a frozen graph is shared by
// lock-free readers, so mutating it is a correctness bug, not a race to
// tolerate. Callers that need to change a frozen graph work on a Clone.
func (g *Graph) mustMutable(op string) {
	if g.frozen.Load() {
		panic("oem: " + op + " on frozen graph (mutate a Clone instead)")
	}
}

// Clone returns a mutable deep copy of the graph that preserves oids:
// objects and reference lists are copied, atoms keep their values (gif
// payloads and interned strings are shared — both are immutable), and the
// published label index is shared copy-on-repair (repairs replace the top
// map instead of editing it, so the original's handles never observe the
// clone's mutations). The clone is unfrozen even when g is frozen.
//
// The objects are copied in three allocations: the table, one slab of
// objects and one arena holding every reference list. Each list is capped at its length,
// so growing one (AddRef) moves it out of the arena instead of overwriting
// its neighbour.
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ng := &Graph{objs: make([]*Object, len(g.objs)), live: g.live, free: g.free}
	slab := make([]Object, g.live)
	nrefs := 0
	for _, o := range g.objs {
		if o != nil {
			nrefs += len(o.Refs)
		}
	}
	arena := make([]Ref, nrefs)
	i := 0
	for id, o := range g.objs {
		if o == nil {
			continue
		}
		no := &slab[i]
		i++
		*no = *o
		no.Refs = nil
		if n := len(o.Refs); n > 0 {
			no.Refs = arena[:n:n]
			copy(no.Refs, o.Refs)
			arena = arena[n:]
		}
		ng.objs[id] = no
	}
	ng.roots = append([]Root(nil), g.roots...)
	if g.labels != nil && len(g.labelsDirty) == 0 {
		// Share the clean published index. Inner per-object maps are never
		// edited in place (repairs build replacements), so sharing is safe
		// even as both graphs mutate independently afterwards.
		ng.labels = g.labels
	}
	return ng
}

// Absorb merges src into g: every object of src is re-addressed to
// oid+offset (offset returned) and moved — not copied — into g, so src is
// consumed and reset to empty. References inside src are remapped in
// place. Roots are not carried over; the caller wires the merged subgraphs
// to its own roots. Absorbing preserves determinism: the same src contents
// absorbed at the same offset produce the same final oids. src's table is
// appended to g's, so src's oids land past every oid g has handed out, and
// src's holes, if any, become g's.
func (g *Graph) Absorb(src *Graph) (OID, error) {
	g.mustMutable("Absorb")
	if src == g {
		return 0, fmt.Errorf("oem: Absorb: graph cannot absorb itself")
	}
	if src.frozen.Load() {
		return 0, fmt.Errorf("oem: Absorb: source graph is frozen")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	offset := OID(len(g.objs)) - 1
	for _, o := range src.objs[1:] {
		if o == nil {
			continue
		}
		o.ID += offset
		for i := range o.Refs {
			o.Refs[i].Target += offset
		}
	}
	g.objs = append(g.objs, src.objs[1:]...)
	g.live += src.live
	// Wholesale index invalidation: an absorb is a bulk mutation far past
	// the incremental-repair threshold.
	g.labels, g.labelsDirty = nil, nil
	src.objs, src.live, src.free = make([]*Object, 1), 0, 1
	src.roots, src.labels, src.labelsDirty = nil, nil, nil
	src.slab, src.slabSize = nil, 0
	return offset, nil
}
