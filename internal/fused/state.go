package fused

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/delta"
	"repro/internal/gml"
	"repro/internal/oem"
)

// This file implements incremental maintenance of a fused world: the
// fuseState recorded during a full fusion holds enough bookkeeping to apply
// a delta.ChangeSet to the fused graph — remove the stale fused entities,
// translate and re-fuse only the touched ones, and re-reconcile only the
// genes whose contributions changed — instead of rebuilding the whole
// integrated view. The patch target is a deep clone of a sealed world's
// state (see World.Patch): the world readers hold is immutable and never
// sees a half-applied delta.

// fuseState is the recorded fusion bookkeeping for one fused world. Once
// sealed into a World it is immutable; all mutation happens on a clone, or
// on a decoded checkpoint before it is sealed.
type fuseState struct {
	graph    *oem.Graph
	root     oem.OID
	policy   Policy
	priority map[string]int
	// conflicts is the world's conflict list. A patch that changes it
	// builds a new slice: a sealed world's list is shared by its clones.
	conflicts []Conflict

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

func (fs *fuseState) init(g *oem.Graph, root oem.OID,
	genes map[string]*fusedGene, bySymbol map[string]*fusedGene, byGeneID map[int64]*fusedGene) {
	fs.graph, fs.root = g, root
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

// dropOwner forgets a gene on the entity side: the owners entry and the
// contribution records scoped to it. The gene-side contributions are the
// caller's problem (they die with the gene, or are stripped explicitly).
func dropOwner(fe *fusedEntity, key string) {
	fe.owners = slices.DeleteFunc(fe.owners, func(o string) bool { return o == key })
	fe.contribs = slices.DeleteFunc(fe.contribs, func(c ownedContrib) bool { return c.owner == key })
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

// apply patches an unsealed fuse state (a clone, or a decoded checkpoint)
// from one source's ChangeSet: deletions first (a modified entity frees its slot before its
// new form arrives), then upserts, then one re-reconciliation pass over
// the genes whose contributions changed. Any bookkeeping inconsistency
// aborts with an error; the caller must then discard the state.
func (fs *fuseState) apply(cs *delta.ChangeSet, mp *gml.SourceMapping) error {
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
		fs.rebuildConflicts()
	}
	// Graph integrity is enforced structurally (every removal detaches its
	// in-edges first); the O(graph) Validate sweep stays out of the hot
	// path and runs in the test suite instead.
	return nil
}

// clone deep-copies the fuse state so a delta can be applied without
// disturbing the sealed world: the graph is cloned oid-preserving (the
// bookkeeping addresses objects by oid, so it stays valid against the
// copy), and every structure apply() mutates — genes, parts, resident
// entities, join indexes — is copied with pointer identity re-established
// in the copy. Immutable leaves (priority, the conflict list and the
// *Conflict records, which are replaced rather than edited) are shared.
func (fs *fuseState) clone() *fuseState {
	nf := &fuseState{
		graph:       fs.graph.Clone(),
		root:        fs.root,
		policy:      fs.policy,
		priority:    fs.priority,
		conflicts:   fs.conflicts,
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
		return fmt.Errorf("fused: delta deletes unknown %s entity (hash %x)", source, hash)
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
			return fmt.Errorf("fused: delta bookkeeping lost a %s contribution on gene %s", c.label, c.owner)
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
		return fmt.Errorf("fused: delta deletes unknown %s gene entity (hash %x)", source, hash)
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
		return fmt.Errorf("fused: gene %s has no %s part (hash %x)", fg.key, source, hash)
	}
	for _, r := range part.refs {
		fs.graph.RemoveRef(fg.oid, r.Label, r.Target)
		fs.graph.RemoveSubtree(r.Target)
	}
	for _, c := range part.contribs {
		if !removeContrib(fg, c.label, source, c.valueKey) {
			return fmt.Errorf("fused: delta bookkeeping lost a %s contribution on gene %s", c.label, fg.key)
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
		if !slices.Contains(fe.owners, fg.key) {
			continue
		}
		if slices.Contains(ownersForKeys(fs.bySymbol, fs.byGeneID, fe), fg) {
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
			if slices.Contains(fe.owners, owner.key) {
				continue
			}
			if err := fs.linkEntity(fe, owner, dirty); err != nil {
				return err
			}
		}
	}
	return nil
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
			return fmt.Errorf("fused: delta bookkeeping lost a %s contribution on gene %s", c.label, fg.key)
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
	for fe := range fs.entityCandidates(sortedKeys(fg.symbols), sortedKeys(fg.geneIDs)) {
		if slices.Contains(fe.owners, fg.key) {
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
	return fs.reclaimKeys(sortedKeys(fg.symbols), sortedKeys(fg.geneIDs), dirty)
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
	geneID, hasID := fs.graph.IntUnder(te, "GeneID")

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
		if lbl, ok := reconciledLabel(ref.Label); ok {
			c := fs.graph.Get(ref.Target)
			if c != nil && c.IsAtomic() {
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
		if !slices.Contains(fe.owners, fg.key) && slices.Contains(owners, fg) {
			if err := fs.linkEntity(fe, fg, dirty); err != nil {
				return err
			}
		}
		for prev := range robbed {
			if slices.Contains(fe.owners, prev.key) && !slices.Contains(owners, prev) {
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
// regenerate the conflict list.
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
				return changed, fmt.Errorf("fused: reconcile %s.%s: %v", fg.key, label, err)
			}
			if err := fs.graph.AddRef(fg.oid, label, atom); err != nil {
				return changed, err
			}
		}
	}
	fs.graph.SortRefs(fg.oid)
	return changed, nil
}

// rebuildConflicts regenerates the conflict list from the per-gene
// records, in deterministic (fusion key, label) order, into a new slice.
func (fs *fuseState) rebuildConflicts() {
	var conflicts []Conflict
	for _, k := range sortedKeys(fs.genes) {
		fg := fs.genes[k]
		for _, label := range reconciledLabels {
			if c := fg.conflicts[label]; c != nil {
				conflicts = append(conflicts, *c)
			}
		}
	}
	fs.conflicts = conflicts
}
