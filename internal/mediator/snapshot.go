package mediator

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"time"

	"repro/internal/delta"
	"repro/internal/gml"
	"repro/internal/obs"
	"repro/internal/oem"
)

// This file implements incremental maintenance of the shared fused
// snapshot: the fuseState recorded during a full fusion holds enough
// bookkeeping to apply a delta.ChangeSet to the fused graph — remove the
// stale fused entities, translate and re-fuse only the touched ones, and
// re-reconcile only the genes whose contributions changed — instead of
// rebuilding the whole integrated view. The patch target is a deep clone
// of the published epoch's state (clone-patch-publish, see RefreshSource):
// the epoch readers hold is immutable and never sees a half-applied delta.

// fuseState is the recorded fusion bookkeeping for one fused snapshot.
// Once published inside an epoch it is immutable; all mutation happens on
// an unpublished clone, under the Manager's epochMu.
type fuseState struct {
	graph    *oem.Graph
	root     oem.OID
	policy   Policy
	priority map[string]int

	genes    map[string]*fusedGene // fusion key -> gene
	bySymbol map[string]*fusedGene
	byGeneID map[int64]*fusedGene

	// Resident link-concept entities by (source, structural hash); a slice
	// holds duplicates (identical records) separately.
	ents map[string]map[uint64][]*fusedEntity
	// Gene-concept entities by (source, structural hash) -> owning fused
	// gene, so a gene-entity deletion finds the part to take out.
	geneParts map[string]map[uint64][]*fusedGene
	// Reverse join indexes: which resident entities could attach to a gene
	// carrying this symbol / GeneID. Consulted when a gene appears or
	// changes keys, so relinking is O(candidates), not O(all entities).
	entBySymbol map[string]map[*fusedEntity]bool
	entByGeneID map[int64]map[*fusedEntity]bool
}

func (fs *fuseState) init(g *oem.Graph, root oem.OID, policy Policy, priority map[string]int,
	genes map[string]*fusedGene, bySymbol map[string]*fusedGene, byGeneID map[int64]*fusedGene) {
	fs.graph, fs.root, fs.policy, fs.priority = g, root, policy, priority
	fs.genes, fs.bySymbol, fs.byGeneID = genes, bySymbol, byGeneID
	fs.ents = map[string]map[uint64][]*fusedEntity{}
	fs.geneParts = map[string]map[uint64][]*fusedGene{}
	fs.entBySymbol = map[string]map[*fusedEntity]bool{}
	fs.entByGeneID = map[int64]map[*fusedEntity]bool{}
}

func (fs *fuseState) indexGenePart(source string, hash uint64, fg *fusedGene) {
	byHash := fs.geneParts[source]
	if byHash == nil {
		byHash = map[uint64][]*fusedGene{}
		fs.geneParts[source] = byHash
	}
	byHash[hash] = append(byHash[hash], fg)
}

func (fs *fuseState) addEntity(fe *fusedEntity) {
	byHash := fs.ents[fe.source]
	if byHash == nil {
		byHash = map[uint64][]*fusedEntity{}
		fs.ents[fe.source] = byHash
	}
	byHash[fe.hash] = append(byHash[fe.hash], fe)
	for _, s := range fe.symbols {
		set := fs.entBySymbol[s]
		if set == nil {
			set = map[*fusedEntity]bool{}
			fs.entBySymbol[s] = set
		}
		set[fe] = true
	}
	for _, id := range fe.geneIDs {
		set := fs.entByGeneID[id]
		if set == nil {
			set = map[*fusedEntity]bool{}
			fs.entByGeneID[id] = set
		}
		set[fe] = true
	}
}

func (fs *fuseState) unindexEntity(fe *fusedEntity) {
	for _, s := range fe.symbols {
		if set := fs.entBySymbol[s]; set != nil {
			delete(set, fe)
			if len(set) == 0 {
				delete(fs.entBySymbol, s)
			}
		}
	}
	for _, id := range fe.geneIDs {
		if set := fs.entByGeneID[id]; set != nil {
			delete(set, fe)
			if len(set) == 0 {
				delete(fs.entByGeneID, id)
			}
		}
	}
}

// entityCandidates gathers resident entities whose join keys touch any of
// the given symbols / GeneIDs.
func (fs *fuseState) entityCandidates(symbols []string, ids []int64) map[*fusedEntity]bool {
	out := map[*fusedEntity]bool{}
	for _, s := range symbols {
		for fe := range fs.entBySymbol[s] {
			out[fe] = true
		}
	}
	for _, id := range ids {
		for fe := range fs.entByGeneID[id] {
			out[fe] = true
		}
	}
	return out
}

func containsOwner(fe *fusedEntity, key string) bool {
	for _, o := range fe.owners {
		if o == key {
			return true
		}
	}
	return false
}

// dropOwner forgets a gene on the entity side: the owners entry and the
// contribution records scoped to it. The gene-side contributions are the
// caller's problem (they die with the gene, or are stripped explicitly).
func dropOwner(fe *fusedEntity, key string) {
	kept := fe.owners[:0]
	for _, o := range fe.owners {
		if o != key {
			kept = append(kept, o)
		}
	}
	fe.owners = kept
	keptC := fe.contribs[:0]
	for _, c := range fe.contribs {
		if c.owner != key {
			keptC = append(keptC, c)
		}
	}
	fe.contribs = keptC
}

// removeContrib strips one (source, value) contribution from a gene's
// label; it reports whether one was found — a miss means the bookkeeping
// and the graph have diverged and the snapshot must be dropped.
func removeContrib(fg *fusedGene, label, source, vk string) bool {
	list := fg.contribs[label]
	for i, sv := range list {
		if sv.Source == source && valueKey(sv.Value) == vk {
			fg.contribs[label] = append(list[:i], list[i+1:]...)
			return true
		}
	}
	return false
}

type dirtySet map[*fusedGene]map[string]bool

func (d dirtySet) mark(fg *fusedGene, label string) {
	labels := d[fg]
	if labels == nil {
		labels = map[string]bool{}
		d[fg] = labels
	}
	labels[label] = true
}

// apply patches an (unpublished, cloned) fuse state from one source's
// ChangeSet: deletions first (a modified entity frees its slot before its
// new form arrives), then upserts, then one re-reconciliation pass over
// the genes whose contributions changed. Any bookkeeping inconsistency
// aborts with an error; the caller must then discard the clone.
func (fs *fuseState) apply(cs *delta.ChangeSet, mp *gml.SourceMapping, stats *Stats) error {
	dirty := dirtySet{}
	for _, d := range cs.Deleted {
		var err error
		if mp.Concept == "Gene" {
			err = fs.removeGenePart(mp.Source, d.Hash, dirty)
		} else {
			err = fs.removeEntity(mp.Source, d.Hash, dirty)
		}
		if err != nil {
			return err
		}
	}
	for _, u := range cs.Upserted {
		var err error
		if mp.Concept == "Gene" {
			err = fs.upsertGene(cs.Graph, u, mp, dirty)
		} else {
			err = fs.upsertEntity(cs.Graph, u, mp, dirty)
		}
		if err != nil {
			return err
		}
	}
	conflictsChanged := false
	for fg, labels := range dirty {
		if fs.genes[fg.key] != fg {
			// Removed (or replaced) while dirty; nothing to redo, but its
			// recorded conflicts died with it.
			conflictsChanged = conflictsChanged || len(fg.conflicts) > 0
			continue
		}
		changed, err := fs.rereconcile(fg, labels)
		if err != nil {
			return err
		}
		conflictsChanged = conflictsChanged || changed
	}
	// The conflict list is O(world) to regenerate; most deltas (the
	// mostly-append, single-contributor case) touch no conflicts at all
	// and skip it.
	if conflictsChanged {
		fs.rebuildConflicts(stats)
	}
	stats.Fetched[mp.Source] = cs.Total
	stats.Kept[mp.Source] = cs.Total
	// Graph integrity is enforced structurally (every removal detaches its
	// in-edges first); the O(graph) Validate sweep stays out of the hot
	// path and runs in the test suite instead.
	return nil
}

// hashCounts returns the multiset of source-entity hashes currently fused
// into the snapshot for one source — exactly the old-model hash multiset a
// structural diff needs, so a refresh never has to re-hash the model it is
// replacing.
func (fs *fuseState) hashCounts(source string) map[uint64]int {
	out := map[uint64]int{}
	for h, list := range fs.ents[source] {
		out[h] += len(list)
	}
	for h, owners := range fs.geneParts[source] {
		out[h] += len(owners)
	}
	return out
}

// clone deep-copies the fuse state so a delta can be applied without
// disturbing the published epoch: the graph is cloned oid-preserving (the
// bookkeeping addresses objects by oid, so it stays valid against the
// copy), and every structure apply() mutates — genes, parts, resident
// entities, join indexes — is copied with pointer identity re-established
// in the copy. Immutable leaves (priority, *Conflict records, which are
// replaced rather than edited) are shared.
func (fs *fuseState) clone() *fuseState {
	nf := &fuseState{
		graph:       fs.graph.Clone(),
		root:        fs.root,
		policy:      fs.policy,
		priority:    fs.priority,
		genes:       make(map[string]*fusedGene, len(fs.genes)),
		bySymbol:    make(map[string]*fusedGene, len(fs.bySymbol)),
		byGeneID:    make(map[int64]*fusedGene, len(fs.byGeneID)),
		ents:        make(map[string]map[uint64][]*fusedEntity, len(fs.ents)),
		geneParts:   make(map[string]map[uint64][]*fusedGene, len(fs.geneParts)),
		entBySymbol: make(map[string]map[*fusedEntity]bool, len(fs.entBySymbol)),
		entByGeneID: make(map[int64]map[*fusedEntity]bool, len(fs.entByGeneID)),
	}
	gmap := make(map[*fusedGene]*fusedGene, len(fs.genes))
	for k, fg := range fs.genes {
		nfg := &fusedGene{
			oid:      fg.oid,
			key:      fg.key,
			geneIDs:  maps.Clone(fg.geneIDs),
			symbols:  maps.Clone(fg.symbols),
			contribs: make(map[string][]SourceValue, len(fg.contribs)),
		}
		for l, vs := range fg.contribs {
			nfg.contribs[l] = append([]SourceValue(nil), vs...)
		}
		if fg.parts != nil {
			nfg.parts = make([]*genePart, len(fg.parts))
			for i, p := range fg.parts {
				np := *p
				np.refs = append([]oem.Ref(nil), p.refs...)
				np.symbols = append([]string(nil), p.symbols...)
				np.geneIDs = append([]int64(nil), p.geneIDs...)
				np.contribs = append([]contribRecord(nil), p.contribs...)
				nfg.parts[i] = &np
			}
		}
		if fg.conflicts != nil {
			nfg.conflicts = maps.Clone(fg.conflicts)
		}
		nf.genes[k] = nfg
		gmap[fg] = nfg
	}
	for s, fg := range fs.bySymbol {
		nf.bySymbol[s] = gmap[fg]
	}
	for id, fg := range fs.byGeneID {
		nf.byGeneID[id] = gmap[fg]
	}
	emap := make(map[*fusedEntity]*fusedEntity)
	for src, byHash := range fs.ents {
		nb := make(map[uint64][]*fusedEntity, len(byHash))
		for h, list := range byHash {
			nl := make([]*fusedEntity, len(list))
			for i, fe := range list {
				ne := *fe
				ne.symbols = append([]string(nil), fe.symbols...)
				ne.geneIDs = append([]int64(nil), fe.geneIDs...)
				ne.owners = append([]string(nil), fe.owners...)
				ne.contribs = append([]ownedContrib(nil), fe.contribs...)
				nl[i] = &ne
				emap[fe] = &ne
			}
			nb[h] = nl
		}
		nf.ents[src] = nb
	}
	for src, byHash := range fs.geneParts {
		nb := make(map[uint64][]*fusedGene, len(byHash))
		for h, list := range byHash {
			nl := make([]*fusedGene, len(list))
			for i, fg := range list {
				nl[i] = gmap[fg]
			}
			nb[h] = nl
		}
		nf.geneParts[src] = nb
	}
	for s, set := range fs.entBySymbol {
		ns := make(map[*fusedEntity]bool, len(set))
		for fe := range set {
			ns[emap[fe]] = true
		}
		nf.entBySymbol[s] = ns
	}
	for id, set := range fs.entByGeneID {
		ns := make(map[*fusedEntity]bool, len(set))
		for fe := range set {
			ns[emap[fe]] = true
		}
		nf.entByGeneID[id] = ns
	}
	return nf
}

// removeEntity takes one link-concept entity out of the snapshot: root and
// gene edges detached, contributions withdrawn, subtree deleted.
func (fs *fuseState) removeEntity(source string, hash uint64, dirty dirtySet) error {
	list := fs.ents[source][hash]
	if len(list) == 0 {
		return fmt.Errorf("mediator: delta deletes unknown %s entity (hash %x)", source, hash)
	}
	fe := list[len(list)-1]
	if len(list) == 1 {
		delete(fs.ents[source], hash)
	} else {
		fs.ents[source][hash] = list[:len(list)-1]
	}
	fs.graph.RemoveRef(fs.root, fe.concept, fe.oid)
	for _, key := range fe.owners {
		if fg := fs.genes[key]; fg != nil {
			fs.graph.RemoveRef(fg.oid, fe.concept, fe.oid)
		}
	}
	for _, c := range fe.contribs {
		fg := fs.genes[c.owner]
		if fg == nil {
			continue
		}
		if !removeContrib(fg, c.label, fe.source, c.valueKey) {
			return fmt.Errorf("mediator: delta bookkeeping lost a %s contribution on gene %s", c.label, c.owner)
		}
		dirty.mark(fg, c.label)
	}
	fs.unindexEntity(fe)
	fs.graph.RemoveSubtree(fe.oid)
	return nil
}

// upsertEntity translates a new or modified link-concept entity straight
// into the snapshot graph, links it to its owner genes, and records it.
func (fs *fuseState) upsertEntity(src *oem.Graph, u delta.Change, mp *gml.SourceMapping, dirty dirtySet) error {
	te, err := gml.TranslateEntity(fs.graph, src, u.OID, mp)
	if err != nil {
		return err
	}
	if err := fs.graph.AddRef(fs.root, mp.Concept, te); err != nil {
		return err
	}
	fe := joinEntity(fs.graph, te, mp.Concept)
	fe.source, fe.concept, fe.hash, fe.oid = mp.Source, mp.Concept, u.Hash, te
	for _, fg := range ownersForKeys(fs.bySymbol, fs.byGeneID, fe) {
		if err := fs.linkEntity(fe, fg, dirty); err != nil {
			return err
		}
	}
	fs.addEntity(fe)
	return nil
}

// linkEntity attaches a resident entity to an owner gene and applies its
// contributions, mirroring fuse pass 2 for exactly one (entity, gene)
// pair.
func (fs *fuseState) linkEntity(fe *fusedEntity, fg *fusedGene, dirty dirtySet) error {
	if err := fs.graph.AddRef(fg.oid, fe.concept, fe.oid); err != nil {
		return err
	}
	fe.owners = append(fe.owners, fg.key)
	for _, lc := range contribsFor(fs.graph, fe.oid, fg.geneIDs, fe.concept, fe.source) {
		fg.contribs[lc.label] = append(fg.contribs[lc.label], lc.sv)
		fe.contribs = append(fe.contribs, ownedContrib{owner: fg.key, label: lc.label, valueKey: valueKey(lc.sv.Value)})
		dirty.mark(fg, lc.label)
	}
	return nil
}

// removeGenePart takes one source's gene entity out of a fused gene:
// structure refs and contributions withdrawn; when it was the gene's last
// part the whole fused gene goes, otherwise join keys are recomputed and
// entities that no longer match are unlinked.
func (fs *fuseState) removeGenePart(source string, hash uint64, dirty dirtySet) error {
	owners := fs.geneParts[source][hash]
	if len(owners) == 0 {
		return fmt.Errorf("mediator: delta deletes unknown %s gene entity (hash %x)", source, hash)
	}
	fg := owners[len(owners)-1]
	if len(owners) == 1 {
		delete(fs.geneParts[source], hash)
	} else {
		fs.geneParts[source][hash] = owners[:len(owners)-1]
	}
	var part *genePart
	for i, p := range fg.parts {
		if p.source == source && p.hash == hash {
			part = p
			fg.parts = append(fg.parts[:i], fg.parts[i+1:]...)
			break
		}
	}
	if part == nil {
		return fmt.Errorf("mediator: gene %s has no %s part (hash %x)", fg.key, source, hash)
	}
	for _, r := range part.refs {
		fs.graph.RemoveRef(fg.oid, r.Label, r.Target)
		fs.graph.RemoveSubtree(r.Target)
	}
	for _, c := range part.contribs {
		if !removeContrib(fg, c.label, source, c.valueKey) {
			return fmt.Errorf("mediator: delta bookkeeping lost a %s contribution on gene %s", c.label, fg.key)
		}
		dirty.mark(fg, c.label)
	}
	if len(fg.parts) == 0 {
		return fs.removeGene(fg, dirty)
	}
	// Recompute the join-key unions from the remaining parts and drop the
	// index entries (and entity links) the removed part was carrying.
	oldSymbols, oldIDs := fg.symbols, fg.geneIDs
	fg.symbols, fg.geneIDs = map[string]bool{}, map[int64]bool{}
	for _, p := range fg.parts {
		for _, s := range p.symbols {
			fg.symbols[s] = true
		}
		for _, id := range p.geneIDs {
			fg.geneIDs[id] = true
		}
	}
	var lostSymbols []string
	for s := range oldSymbols {
		if !fg.symbols[s] {
			lostSymbols = append(lostSymbols, s)
			if fs.bySymbol[s] == fg {
				delete(fs.bySymbol, s)
			}
		}
	}
	var lostIDs []int64
	for id := range oldIDs {
		if !fg.geneIDs[id] {
			lostIDs = append(lostIDs, id)
			if fs.byGeneID[id] == fg {
				delete(fs.byGeneID, id)
			}
		}
	}
	if err := fs.reclaimKeys(lostSymbols, lostIDs, dirty); err != nil {
		return err
	}
	for fe := range fs.entityCandidates(lostSymbols, lostIDs) {
		if !containsOwner(fe, fg.key) {
			continue
		}
		if stillOwner(ownersForKeys(fs.bySymbol, fs.byGeneID, fe), fg) {
			continue
		}
		if err := fs.unlinkEntity(fe, fg, dirty); err != nil {
			return err
		}
	}
	return nil
}

// reclaimKeys re-resolves join keys whose index entry just went away:
// when another resident gene still carries the key (alias collisions make
// this possible), it takes the slot over, and candidate entities are
// relinked to their re-resolved owners — the linkage a full re-fusion
// would produce. The claimant scan is O(genes) per lost key, which is fine
// on this path: keys are only lost when gene entities shrink or vanish,
// and deltas are small by construction.
func (fs *fuseState) reclaimKeys(lostSymbols []string, lostIDs []int64, dirty dirtySet) error {
	for _, s := range lostSymbols {
		if _, taken := fs.bySymbol[s]; taken {
			continue
		}
		for _, other := range fs.genes {
			if other.symbols[s] {
				fs.bySymbol[s] = other
				break
			}
		}
	}
	for _, id := range lostIDs {
		if _, taken := fs.byGeneID[id]; taken {
			continue
		}
		for _, other := range fs.genes {
			if other.geneIDs[id] {
				fs.byGeneID[id] = other
				break
			}
		}
	}
	for fe := range fs.entityCandidates(lostSymbols, lostIDs) {
		for _, owner := range ownersForKeys(fs.bySymbol, fs.byGeneID, fe) {
			if containsOwner(fe, owner.key) {
				continue
			}
			if err := fs.linkEntity(fe, owner, dirty); err != nil {
				return err
			}
		}
	}
	return nil
}

func stillOwner(owners []*fusedGene, fg *fusedGene) bool {
	for _, o := range owners {
		if o == fg {
			return true
		}
	}
	return false
}

// unlinkEntity detaches an entity from a gene that still exists,
// withdrawing the contributions it scoped to that gene.
func (fs *fuseState) unlinkEntity(fe *fusedEntity, fg *fusedGene, dirty dirtySet) error {
	fs.graph.RemoveRef(fg.oid, fe.concept, fe.oid)
	for _, c := range fe.contribs {
		if c.owner != fg.key {
			continue
		}
		if !removeContrib(fg, c.label, fe.source, c.valueKey) {
			return fmt.Errorf("mediator: delta bookkeeping lost a %s contribution on gene %s", c.label, fg.key)
		}
		dirty.mark(fg, c.label)
	}
	dropOwner(fe, fg.key)
	return nil
}

// removeGene deletes a fused gene outright: linked entities are released
// (they stay resident under the root, as a fresh full fusion would keep
// them), the gene's private subtree is deleted, the indexes forget it, and
// any join key another gene also carries is reclaimed so those entities
// re-link the way a full re-fusion would link them.
func (fs *fuseState) removeGene(fg *fusedGene, dirty dirtySet) error {
	for fe := range fs.entityCandidates(mapKeys(fg.symbols), int64Keys(fg.geneIDs)) {
		if containsOwner(fe, fg.key) {
			dropOwner(fe, fg.key)
		}
	}
	// Detach the shared link-entity edges so RemoveSubtree stays inside
	// the gene's private objects (structure imports and reconciled atoms).
	for concept := range linkContrib {
		fs.graph.RemoveRefs(fg.oid, concept)
	}
	fs.graph.RemoveRef(fs.root, "Gene", fg.oid)
	fs.graph.RemoveSubtree(fg.oid)
	delete(fs.genes, fg.key)
	for s := range fg.symbols {
		if fs.bySymbol[s] == fg {
			delete(fs.bySymbol, s)
		}
	}
	for id := range fg.geneIDs {
		if fs.byGeneID[id] == fg {
			delete(fs.byGeneID, id)
		}
	}
	return fs.reclaimKeys(mapKeys(fg.symbols), int64Keys(fg.geneIDs), dirty)
}

// upsertGene fuses a new or modified gene entity into the snapshot:
// translate in place, merge into (or create) the fused gene for its
// fusion key, then link every resident entity that joins to the keys it
// brought in.
func (fs *fuseState) upsertGene(src *oem.Graph, u delta.Change, mp *gml.SourceMapping, dirty dirtySet) error {
	te, err := gml.TranslateEntity(fs.graph, src, u.OID, mp)
	if err != nil {
		return err
	}
	teo := fs.graph.Get(te)
	key := gml.CanonicalSymbol(fs.graph.StringUnder(te, "Symbol"))
	aliases := stringsUnder(fs.graph, te, "Alias")
	geneID, hasID := intUnder(fs.graph, te, "GeneID")

	fg := fs.genes[key]
	created := fg == nil
	if created {
		fg = newFusedGene(key)
		fg.oid = fs.graph.NewComplex()
		if err := fs.graph.AddRef(fs.root, "Gene", fg.oid); err != nil {
			return err
		}
		fs.genes[key] = fg
	}
	part := &genePart{source: mp.Source, hash: u.Hash, symbols: []string{key}}
	for _, ref := range teo.Refs {
		if isReconciled(ref.Label) {
			c := fs.graph.Get(ref.Target)
			if c != nil && c.IsAtomic() {
				lbl := canonLabel(ref.Label)
				v := c.Value()
				fg.contribs[lbl] = append(fg.contribs[lbl], SourceValue{Source: mp.Source, Value: v})
				part.contribs = append(part.contribs, contribRecord{label: lbl, valueKey: valueKey(v)})
				dirty.mark(fg, lbl)
			}
			// The value became a contribution (or was unusable); its
			// translated object is not attached anywhere.
			fs.graph.RemoveSubtree(ref.Target)
			continue
		}
		if err := fs.graph.AddRef(fg.oid, ref.Label, ref.Target); err != nil {
			return err
		}
		part.refs = append(part.refs, oem.Ref{Label: ref.Label, Target: ref.Target})
	}
	// The translation wrapper object is empty-handed now; drop it without
	// touching the children that moved onto the fused gene.
	if err := fs.graph.SetRefs(te, nil); err != nil {
		return err
	}
	fs.graph.RemoveSubtree(te)

	fg.parts = append(fg.parts, part)
	fs.indexGenePart(mp.Source, u.Hash, fg)
	// Installing this part's keys may steal index slots from other genes
	// (alias collisions); remember the previous claimants so entities they
	// owned through those keys can be re-routed, the way a full re-fusion
	// would route them.
	robbed := map[*fusedGene]bool{}
	claim := func(s string) {
		if prev := fs.bySymbol[s]; prev != nil && prev != fg {
			robbed[prev] = true
		}
		fs.bySymbol[s] = fg
	}
	fg.symbols[key] = true
	claim(key)
	for _, a := range aliases {
		cs := gml.CanonicalSymbol(a)
		fg.symbols[cs] = true
		part.symbols = append(part.symbols, cs)
		claim(cs)
	}
	if hasID {
		if prev := fs.byGeneID[geneID]; prev != nil && prev != fg {
			robbed[prev] = true
		}
		fg.geneIDs[geneID] = true
		part.geneIDs = append(part.geneIDs, geneID)
		fs.byGeneID[geneID] = fg
	}
	if created {
		// Materialize every reconciled label, even contribution-less ones.
		for _, l := range reconciledLabels {
			dirty.mark(fg, l)
		}
	}
	// Re-route resident entities joining through this part's keys: link
	// the ones that now resolve to fg, and unlink any that a robbed gene
	// owned but no longer resolves to.
	for fe := range fs.entityCandidates(part.symbols, part.geneIDs) {
		owners := ownersForKeys(fs.bySymbol, fs.byGeneID, fe)
		if !containsOwner(fe, fg.key) && stillOwner(owners, fg) {
			if err := fs.linkEntity(fe, fg, dirty); err != nil {
				return err
			}
		}
		for prev := range robbed {
			if containsOwner(fe, prev.key) && !stillOwner(owners, prev) {
				if err := fs.unlinkEntity(fe, prev, dirty); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rereconcile recomputes the winners for the given reconciled labels of
// one gene: the previous winner atoms are deleted and fresh ones
// materialized from the current contribution set. changed reports whether
// any label's conflict state was (or is) non-empty — the caller's cue to
// regenerate the stats conflict list.
func (fs *fuseState) rereconcile(fg *fusedGene, labels map[string]bool) (changed bool, err error) {
	for label := range labels {
		for _, t := range fs.graph.Children(fg.oid, label) {
			fs.graph.RemoveSubtree(t)
		}
		fs.graph.RemoveRefs(fg.oid, label)
		winners, conflict := reconcile(fg.key, label, fg.contribs[label], fs.policy, fs.priority)
		if fg.conflicts == nil {
			fg.conflicts = map[string]*Conflict{}
		}
		if conflict != nil || fg.conflicts[label] != nil {
			changed = true
		}
		if conflict != nil {
			fg.conflicts[label] = conflict
		} else {
			delete(fg.conflicts, label)
		}
		for _, w := range winners {
			atom, err := fs.graph.NewAtom(w.Value)
			if err != nil {
				return changed, fmt.Errorf("mediator: reconcile %s.%s: %v", fg.key, label, err)
			}
			if err := fs.graph.AddRef(fg.oid, label, atom); err != nil {
				return changed, err
			}
		}
	}
	fs.graph.SortRefs(fg.oid)
	return changed, nil
}

// rebuildConflicts refreshes the snapshot stats' conflict list from the
// per-gene records, in deterministic (fusion key, label) order.
func (fs *fuseState) rebuildConflicts(stats *Stats) {
	keys := make([]string, 0, len(fs.genes))
	for k := range fs.genes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	stats.Conflicts = stats.Conflicts[:0]
	for _, k := range keys {
		fg := fs.genes[k]
		for _, label := range reconciledLabels {
			if c := fg.conflicts[label]; c != nil {
				stats.Conflicts = append(stats.Conflicts, *c)
			}
		}
	}
}

func mapKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func int64Keys(m map[int64]bool) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// ---------------------------------------------------------------------------
// Manager-level refresh orchestration
// ---------------------------------------------------------------------------

// RefreshResult reports what one RefreshSource call did.
type RefreshResult struct {
	Source     string
	OldVersion uint64
	NewVersion uint64
	// Upserted/Deleted/Total describe the computed ChangeSet (zero when
	// the refresh fell straight back to a full rebuild).
	Upserted int
	Deleted  int
	Total    int
	// Native: the wrapper emitted its own changelog (delta.Source) rather
	// than relying on the structural differ.
	Native bool
	// FullRebuild: the delta path was not taken; Reason says why. The
	// rebuild itself happens lazily, on the next query or snapshot use.
	FullRebuild bool
	Reason      string
	// Patched: a patched snapshot epoch was published (clone-patch-publish).
	Patched bool
	// Invalidated is the number of cached results dropped by
	// concept-scoped invalidation.
	Invalidated int
	Took        time.Duration
}

// RefreshSource refreshes one registered source and propagates the change
// as a delta: the old and new ANNODA-OML models are compared (or the
// wrapper's native changelog consulted), a clone of the current snapshot
// epoch is patched and published as the next epoch, and only cached
// results whose concepts the change touches are invalidated. When the
// delta is unavailable or too large the call degrades to the pre-delta
// behaviour — drop everything, rebuild on next use — so it is always safe
// to call.
func (m *Manager) RefreshSource(name string) (*RefreshResult, error) {
	return m.RefreshSourceCtx(context.Background(), name)
}

// RefreshSourceCtx is RefreshSource recording into the request trace
// carried by ctx (or a fresh one when observability is on and ctx has
// none). The refresh's diff, patch, WAL-append, invalidation and
// standing-query stages show up as spans.
func (m *Manager) RefreshSourceCtx(ctx context.Context, name string) (*RefreshResult, error) {
	op := m.beginOp(ctx, "refresh", name)
	rr, err := m.refreshSource(name, op.tr)
	m.endOp(op, m.opRefreshDur, m.opRefreshErr, err)
	return rr, err
}

func (m *Manager) refreshSource(name string, tr *obs.Trace) (*RefreshResult, error) {
	w := m.reg.Get(name)
	if w == nil {
		return nil, fmt.Errorf("mediator: source %q not registered", name)
	}
	start := obs.Now()
	rr := &RefreshResult{Source: name, OldVersion: w.Version()}
	mp := m.gl.MappingFor(name)

	if m.cache == nil || mp == nil {
		// No cache means no snapshot and nothing to invalidate
		// selectively; an unmapped source never entered the fused view.
		w.Refresh()
		rr.NewVersion = w.Version()
		rr.FullRebuild = true
		rr.Reason = "delta maintenance needs the result cache and a mapped source"
		m.fullRebuilds.Inc()
		rr.Took = obs.Since(start)
		return rr, nil
	}

	release := m.gateRefresh()
	defer release()

	fullRebuild := func(reason string) (*RefreshResult, error) {
		rr.FullRebuild = true
		rr.Reason = reason
		m.rebuildFallback(name, reason, release, tr)
		rr.Took = obs.Since(start)
		return rr, nil
	}

	// The differ needs a baseline for the pre-refresh population. When the
	// current epoch is fresh it already records every entity's hash — the
	// old model never gets re-hashed (or even rebuilt). The epoch read is
	// lock-free: published fuse states are immutable.
	fpBefore := m.sourceFingerprint()
	var oldCounts map[uint64]int
	degradedBefore := false
	if ep := m.epoch.Load(); ep != nil && ep.fp == fpBefore {
		// For a source the epoch is missing (degraded-mode fusion) the
		// recorded counts are empty, so the diff below is pure upserts —
		// the refresh doubles as the source's re-admission.
		oldCounts = ep.fs.hashCounts(name)
		degradedBefore = containsSource(ep.degraded, name)
	}
	var oldModel *oem.Graph
	if oldCounts == nil {
		var err error
		oldModel, err = w.Model()
		if err != nil {
			return nil, fmt.Errorf("mediator: source %s: %v", name, err)
		}
	}
	w.Refresh()
	rr.NewVersion = w.Version()
	newModel, err := m.sourceModel(context.Background(), w, tr)
	if err != nil {
		// Refreshed but unreadable; the fingerprint moved, so ensureFresh
		// will drop stale results on the next query.
		return nil, fmt.Errorf("mediator: source %s: %w", name, err)
	}
	fpAfter := m.sourceFingerprint()

	var cs *delta.ChangeSet
	if ds, ok := w.(delta.Source); ok {
		if native, ok := ds.Changes(rr.OldVersion); ok && native != nil {
			cs = native
			rr.Native = true
		}
	}
	if cs == nil {
		td := obs.Now()
		if oldCounts != nil {
			cs, err = delta.DiffAgainst(oldCounts, newModel, w.Name(), w.EntityLabel())
		} else {
			cs, err = delta.Diff(oldModel, newModel, w.Name(), w.EntityLabel())
		}
		tr.SpanNote(obs.StageDiff, td, name)
		if err != nil {
			return fullRebuild("diff failed: " + err.Error())
		}
	}
	rr.Upserted, rr.Deleted, rr.Total = len(cs.Upserted), len(cs.Deleted), cs.Total
	// Delta time is the one place the source's post-refresh population is
	// known without refetching; keep the statistics table's entity count
	// current even when the structural patch below bails out.
	m.srcStats.SetEntities(name, cs.Total)

	maxFrac := m.opts.MaxDeltaFraction
	if maxFrac <= 0 {
		maxFrac = DefaultMaxDeltaFraction
	}
	// Re-admitting a source the epoch is missing is all upserts by
	// construction — a "delta" of the whole population. That is still far
	// cheaper than rebuilding the whole multi-source world, so the
	// too-large bound does not apply to it.
	if cs.Fraction() > maxFrac && !degradedBefore {
		return fullRebuild(fmt.Sprintf("delta too large (%.0f%% of source changed, limit %.0f%%)",
			cs.Fraction()*100, maxFrac*100))
	}

	rr.Patched, rr.Invalidated, err = m.publishDelta(cs, mp, fpBefore, fpAfter, release, tr)
	if err != nil {
		return fullRebuild("snapshot patch failed: " + err.Error())
	}
	rr.Took = obs.Since(start)
	return rr, nil
}

// gateRefresh raises the refreshing gate and returns its idempotent
// release. From a source's version (or recovery-generation) bump until the
// change is fully propagated, concurrent queries must keep serving the
// pre-change world instead of reacting to the fingerprint move (ensureFresh
// would nuke the whole cache, pinEpoch would waste a full rebuild); the
// change becomes visible when publishDelta or rebuildFallback publishes the
// new fingerprint. Those two drop the gate early before re-evaluating
// standing queries against a fresh pin — pinEpoch refuses to see the
// post-change world while the gate is up.
func (m *Manager) gateRefresh() (release func()) {
	m.refreshing.Add(1)
	released := false
	return func() {
		if !released {
			released = true
			m.refreshing.Add(-1)
		}
	}
}

// publishDelta is the one clone-patch-publish step, shared by RefreshSource
// and probe re-admission. The serving epoch stays untouched (readers pinned
// to it keep a consistent pre-change world); when it still describes the
// world cs was computed against (fp == fpBefore — patching anything newer
// would double-apply) the delta is applied to a deep clone, which is frozen
// and published as the next epoch under fpAfter. The WAL append and the
// feed notification happen inside the same epochMu section, so epoch
// publication order == WAL order == feed sequence order by construction.
// Outside the lock the delta is counted, the cached results the source's
// concept could have staled are dropped, the fingerprint is published, and
// the standing queries the concept touches are re-evaluated. A failed
// patch retires the epoch and returns the error; the caller then takes
// rebuildFallback.
func (m *Manager) publishDelta(cs *delta.ChangeSet, mp *gml.SourceMapping, fpBefore, fpAfter uint64, release func(), tr *obs.Trace) (patched bool, invalidated int, err error) {
	name := mp.Source
	var published *snapshot // the patched epoch standing queries re-evaluate against
	var feedSeq uint64
	readmitted := false
	tp := obs.Now()
	m.epochMu.Lock()
	if cur := m.epoch.Load(); cur != nil && cur.fp == fpBefore {
		// A source the epoch was missing (degraded-mode fusion) leaves the
		// degraded set even with an empty population: the epoch now
		// reflects everything the source has.
		readmitted = containsSource(cur.degraded, name)
		next := &snapshot{fs: cur.fs, stats: cur.stats, fp: fpAfter, degraded: dropSource(cur.degraded, name)}
		if !cs.Empty() || readmitted {
			next.stats = cur.stats.clone()
			next.stats.DegradedSources = next.degraded
		}
		if !cs.Empty() {
			next.fs = cur.fs.clone()
			if err := next.fs.apply(cs, mp, next.stats); err != nil {
				// A half-applied clone is simply dropped; the published
				// epoch was never touched, but its fingerprint is stale
				// now, so retire it and rebuild lazily.
				m.epoch.Store(nil)
				m.epochMu.Unlock()
				return false, 0, err
			}
		}
		// An empty delta republishes the same immutable fuse state under
		// the new fingerprint.
		m.publishLocked(next)
		if !cs.Empty() {
			m.persistDeltaLocked(cs, cur, next, tr)
			published = next
		} else if m.store != nil && m.diskEpoch.Load() == cur {
			// The store still describes this world; advance the marker so
			// a shutdown flush does not rewrite an identical checkpoint.
			m.diskEpoch.Store(next)
		}
		patched = true
	}
	// Empty deltas touch no concepts and publish no event.
	if !cs.Empty() {
		tf := obs.Now()
		feedSeq = m.publishChangeLocked(cs, mp.Concept, fpAfter)
		d := obs.Since(tf)
		tr.SpanDur(obs.StageFeedPublish, tf, d, "")
		if m.o != nil {
			m.o.M.FeedPubDur.Observe(d)
		}
	}
	if readmitted {
		// Announced after the change event carrying the source's data.
		// (An unpatched epoch keeps its degraded set; the re-admission then
		// happens on the lazy rebuild instead.)
		m.publishSourceUpLocked(name, fpAfter)
	}
	m.epochMu.Unlock()
	if patched {
		tr.SpanNote(obs.StageDeltaPatch, tp, fmt.Sprintf("%d changes", cs.Size()))
	}

	m.deltasApplied.Inc()
	m.entitiesPatched.Add(uint64(cs.Size()))

	// Concept-scoped invalidation: only results whose computation touched
	// this source's concept can be stale. Order matters — drop the stale
	// entries before publishing the new fingerprint, so no query can hit
	// them once ensureFresh stands down.
	if !cs.Empty() {
		ti := obs.Now()
		invalidated = m.cache.InvalidateTags([]string{mp.Concept})
		tr.SpanNote(obs.StageInvalidate, ti, fmt.Sprintf("%d dropped", invalidated))
		m.selectiveInvals.Add(uint64(invalidated))
	}
	m.lastFP.CompareAndSwap(fpBefore, fpAfter)

	// Re-evaluate the standing queries the concept touches: against the
	// epoch just published when one was patched (the immutable post-change
	// world, evaluated without any lock); otherwise drop the gate first so
	// a fresh pin builds the post-change world instead of serving the old.
	if feedSeq != 0 {
		ts := obs.Now()
		if published == nil {
			release()
		}
		m.evalStanding(feedSeq, []string{mp.Concept}, published)
		tr.Span(obs.StageStandingEval, ts)
	}
	return patched, invalidated, nil
}

// rebuildFallback is the one way out of incremental maintenance (delta
// unavailable, too large, or unpatchable): drop every cached result,
// publish the post-change fingerprint and a rebuild marker on the feed,
// and let the next pin rebuild the world — always safe, just not
// incremental.
func (m *Manager) rebuildFallback(name, reason string, release func(), tr *obs.Trace) {
	m.fullRebuilds.Inc()
	tr.Annotate("full rebuild: " + reason)
	m.epochMu.Lock()
	m.cache.Invalidate()
	// Publish the post-change fingerprint under the epoch writer lock. It
	// is computed inside the lock, after this change's version bump, so
	// whichever concurrent rebuilder stores last stores a fingerprint that
	// covers every completed bump — a load-then-CAS could be interleaved
	// so that neither fingerprint was ever published and the next
	// ensureFresh nuked spuriously.
	fp := m.sourceFingerprint()
	m.lastFP.Store(fp)
	// A rebuild invalidates everything, so the feed marker carries the
	// wildcard concept: every subscriber must resync.
	seq := m.publishRebuildLocked(name, fp)
	m.epochMu.Unlock()
	if seq != 0 {
		release()
		ts := obs.Now()
		m.evalStanding(seq, []string{"*"}, nil)
		tr.Span(obs.StageStandingEval, ts)
	}
}
