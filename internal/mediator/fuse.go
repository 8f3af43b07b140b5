package mediator

import (
	"fmt"
	"strings"

	"repro/internal/gml"
	"repro/internal/oem"
)

// fusedGene is one fused gene object: reconciled attributes plus links to
// Annotation/Disease/Protein entities. The per-query pipeline uses only the
// join bookkeeping (key, symbols, geneIDs, contribs); the snapshot recorder
// additionally tracks parts and conflicts so a ChangeSet can be applied to
// the fused graph (see snapshot.go).
type fusedGene struct {
	oid      oem.OID
	key      string // canonical symbol, the fusion key
	geneIDs  map[int64]bool
	symbols  map[string]bool // canonical symbol + aliases
	contribs map[string][]SourceValue

	// Recorder-only bookkeeping (nil/empty on the per-query path).
	parts     []*genePart
	conflicts map[string]*Conflict

	// Parallel-fusion bookkeeping: ord is the global first-appearance
	// index of the gene's first entity (the deterministic merge order),
	// shard the worker that owns the gene. Unused on the sequential path.
	ord   int
	shard int
}

func newFusedGene(key string) *fusedGene {
	return &fusedGene{
		key:      key,
		geneIDs:  map[int64]bool{},
		symbols:  map[string]bool{},
		contribs: map[string][]SourceValue{},
	}
}

// genePart records what one source's gene entity contributed to a fused
// gene, precisely enough to take it back out: the structure refs attached,
// the reconciliation contributions made, and the join keys brought in.
type genePart struct {
	source   string
	hash     uint64 // delta.HashEntity of the source-model entity
	refs     []oem.Ref
	symbols  []string // canonical; [0] is the fusion key
	geneIDs  []int64
	contribs []contribRecord
}

// contribRecord identifies one reconciliation contribution for removal.
// The value is keyed (valueKey) rather than held, so removal never
// compares raw any values of unknown comparability.
type contribRecord struct {
	label    string
	valueKey string
}

// ownedContrib is a contribRecord scoped to the owning gene — link-entity
// contributions are computed per owner (Disease attribution depends on the
// owner's GeneID set).
type ownedContrib struct {
	owner    string // gene fusion key
	label    string
	valueKey string
}

// fusedEntity records one link-concept entity resident in the fused
// snapshot: where it came from, its oid, the join keys it matches genes
// with, and what it contributed to which gene.
type fusedEntity struct {
	source  string
	concept string
	hash    uint64
	oid     oem.OID
	// Join keys, per-concept semantics (see joinEntity): only the keys the
	// concept's join rule actually consults are stored.
	symbols  []string
	geneIDs  []int64
	owners   []string // fusion keys of linked genes
	contribs []ownedContrib
}

// joinEntity extracts an entity's gene-join keys under the concept's join
// rule: Annotation joins on canonical symbol; Disease on every GeneID with
// a symbol fallback; Protein on GeneID, or symbol only when no GeneID is
// present. Both fresh fusion and snapshot patching resolve owners through
// these keys, so the join rules live in exactly one place.
func joinEntity(g *oem.Graph, e oem.OID, concept string) *fusedEntity {
	fe := &fusedEntity{concept: concept}
	switch concept {
	case "Annotation":
		fe.symbols = []string{gml.CanonicalSymbol(stringUnder(g, e, "Symbol"))}
	case "Disease":
		fe.geneIDs = intsUnder(g, e, "GeneID")
		for _, s := range stringsUnder(g, e, "Symbol") {
			fe.symbols = append(fe.symbols, gml.CanonicalSymbol(s))
		}
	case "Protein":
		if id, ok := intUnder(g, e, "GeneID"); ok {
			fe.geneIDs = []int64{id}
		} else {
			fe.symbols = []string{gml.CanonicalSymbol(stringUnder(g, e, "Symbol"))}
		}
	}
	return fe
}

// ownersForKeys resolves an entity's owner genes from its join keys.
// Disease entities may attach to several genes (deduplicated); Annotation
// and Protein attach to at most one, preferring the GeneID join.
func ownersForKeys(bySymbol map[string]*fusedGene, byGeneID map[int64]*fusedGene, fe *fusedEntity) []*fusedGene {
	if fe.concept == "Disease" {
		var owners []*fusedGene
		seen := map[string]bool{}
		for _, id := range fe.geneIDs {
			if fg := byGeneID[id]; fg != nil && !seen[fg.key] {
				seen[fg.key] = true
				owners = append(owners, fg)
			}
		}
		for _, s := range fe.symbols {
			if fg := bySymbol[s]; fg != nil && !seen[fg.key] {
				seen[fg.key] = true
				owners = append(owners, fg)
			}
		}
		return owners
	}
	for _, id := range fe.geneIDs {
		if fg := byGeneID[id]; fg != nil {
			return []*fusedGene{fg}
		}
	}
	for _, s := range fe.symbols {
		if fg := bySymbol[s]; fg != nil {
			return []*fusedGene{fg}
		}
	}
	return nil
}

// fuseGeneEntity merges one gene entity into the fused-gene table of graph
// g: create-or-find the fused gene for key, copy non-reconciled structure
// (first contributor wins), turn reconciled-label atoms into
// contributions, and union join keys. It is the single pass-1 body shared
// by sequential fusion and every parallel shard worker, so the two paths
// cannot drift. root != 0 attaches newly created genes to it immediately
// (the sequential layout); parallel shards pass 0 and wire roots at merge
// time. ord stamps a created gene's global first-appearance index.
func fuseGeneEntity(g *oem.Graph, root oem.OID, pop *population, i int, key string,
	byKey map[string]*fusedGene, genes *[]*fusedGene, ord int, recorded bool) error {
	e := pop.entities[i]
	fg, exists := byKey[key]
	if !exists {
		fg = newFusedGene(key)
		fg.oid = g.NewComplex()
		fg.ord = ord
		byKey[key] = fg
		*genes = append(*genes, fg)
		if root != 0 {
			if err := g.AddRef(root, "Gene", fg.oid); err != nil {
				return err
			}
		}
	}
	var part *genePart
	if recorded {
		part = &genePart{source: pop.source, hash: pop.hashes[i], symbols: []string{key}}
		fg.parts = append(fg.parts, part)
	}
	// Copy non-reconciled labels from the entity (first contributor wins
	// for structure; atoms under reconciled labels become contributions
	// instead).
	eo := pop.graph.Get(e)
	for _, ref := range eo.Refs {
		if isReconciled(ref.Label) {
			c := pop.graph.Get(ref.Target)
			if c != nil && c.IsAtomic() {
				lbl := canonLabel(ref.Label)
				v := c.Value()
				fg.contribs[lbl] = append(fg.contribs[lbl],
					SourceValue{Source: pop.source, Value: v})
				if part != nil {
					part.contribs = append(part.contribs, contribRecord{label: lbl, valueKey: valueKey(v)})
				}
			}
			continue
		}
		imported, err := g.Import(pop.graph, ref.Target)
		if err != nil {
			return err
		}
		if err := g.AddRef(fg.oid, ref.Label, imported); err != nil {
			return err
		}
		if part != nil {
			part.refs = append(part.refs, oem.Ref{Label: ref.Label, Target: imported})
		}
	}
	fg.symbols[key] = true
	for _, a := range stringsUnder(pop.graph, e, "Alias") {
		cs := gml.CanonicalSymbol(a)
		fg.symbols[cs] = true
		if part != nil {
			part.symbols = append(part.symbols, cs)
		}
	}
	if id, ok := intUnder(pop.graph, e, "GeneID"); ok {
		fg.geneIDs[id] = true
		if part != nil {
			part.geneIDs = append(part.geneIDs, id)
		}
	}
	return nil
}

// fuseInto combines the per-source populations into one integrated OEM graph:
//
//	ANNODA-GML
//	  Gene*        fused gene objects: reconciled attributes + links to
//	               Annotation/Disease/Protein entities
//	  Annotation*  translated GO annotations
//	  Disease*     translated OMIM entries
//	  Protein*     translated protein records (when ProtDB is plugged in)
//
// Gene–Annotation links join on canonical symbol; Gene–Disease links join
// on GeneID with a symbol fallback; Gene–Protein on GeneID. Linked-entity
// labels that describe the gene itself (linkContrib) feed reconciliation.
//
// When rec is non-nil the fusion bookkeeping (gene parts, resident entities, join indexes,
// per-gene conflicts) is captured into it so the resulting graph can later
// be patched from a delta.ChangeSet. Populations feeding a recorded fusion
// must carry entity hashes (fetch with hashes=true). Large fusions run the
// gene-key-sharded parallel path (see fuse_parallel.go), which is
// parity-tested to produce the same fused world as this sequential one.
func (m *Manager) fuseInto(an *analysis, pops []*population, stats *Stats, rec *fuseState) (*oem.Graph, error) {
	if m.parallelFuseEligible(pops) {
		return m.fuseParallel(an, pops, stats, rec)
	}
	return m.fuseSequential(an, pops, stats, rec)
}

// fuseSequential is the single-threaded reference fusion.
func (m *Manager) fuseSequential(an *analysis, pops []*population, stats *Stats, rec *fuseState) (*oem.Graph, error) {
	g := oem.NewGraph()
	root := g.NewComplex()
	g.SetRoot("ANNODA-GML", root)

	priority := map[string]int{}
	for i, w := range m.reg.All() {
		priority[w.Name()] = i
	}

	// ---- Pass 1: import gene entities and build fusion keys. ----
	var genes []*fusedGene
	byKey := map[string]*fusedGene{}
	bySymbol := map[string]*fusedGene{}
	byGeneID := map[int64]*fusedGene{}

	ord := 0
	for _, pop := range pops {
		if pop.concept != "Gene" {
			continue
		}
		for i := range pop.entities {
			key := gml.CanonicalSymbol(stringUnder(pop.graph, pop.entities[i], "Symbol"))
			if err := fuseGeneEntity(g, root, pop, i, key, byKey, &genes, ord, rec != nil); err != nil {
				return nil, err
			}
			ord++
		}
	}
	for _, fg := range genes {
		for s := range fg.symbols {
			bySymbol[s] = fg
		}
		for id := range fg.geneIDs {
			byGeneID[id] = fg
		}
	}
	if rec != nil {
		rec.init(g, root, m.opts.Policy, priority, byKey, bySymbol, byGeneID)
		for _, fg := range genes {
			for _, part := range fg.parts {
				rec.indexGenePart(part.source, part.hash, fg)
			}
		}
	}

	// ---- Pass 2: import link-concept entities, link to genes, and ----
	// ---- collect their gene-describing contributions.              ----
	haveGenes := len(genes) > 0
	for _, pop := range pops {
		if pop.concept == "Gene" {
			continue
		}
		for i, e := range pop.entities {
			fe := joinEntity(pop.graph, e, pop.concept)
			owners := ownersForKeys(bySymbol, byGeneID, fe)
			// Semi-join: when the query only reaches this concept through
			// gene links, unlinked entities are dead weight. They are still
			// imported when the concept is queried directly.
			direct := conceptQueriedDirectly(an, pop.concept)
			if len(owners) == 0 && !direct && haveGenes && !m.opts.DisablePushdown {
				continue
			}
			imported, err := g.Import(pop.graph, e)
			if err != nil {
				return nil, err
			}
			if err := g.AddRef(root, pop.concept, imported); err != nil {
				return nil, err
			}
			if rec != nil {
				fe.source, fe.hash, fe.oid = pop.source, pop.hashes[i], imported
			}
			for _, fg := range owners {
				if err := g.AddRef(fg.oid, pop.concept, imported); err != nil {
					return nil, err
				}
				for _, lc := range contribsFor(pop.graph, e, fg.geneIDs, pop.concept, pop.source) {
					fg.contribs[lc.label] = append(fg.contribs[lc.label], lc.sv)
					if rec != nil {
						fe.contribs = append(fe.contribs, ownedContrib{owner: fg.key, label: lc.label, valueKey: valueKey(lc.sv.Value)})
					}
				}
				if rec != nil {
					fe.owners = append(fe.owners, fg.key)
				}
			}
			if rec != nil {
				rec.addEntity(fe)
			}
		}
	}

	// ---- Pass 3: reconcile gene attributes. ----
	for _, fg := range genes {
		for _, label := range reconciledLabels {
			winners, conflict := reconcile(fg.key, label, fg.contribs[label], m.opts.Policy, priority)
			if conflict != nil {
				stats.Conflicts = append(stats.Conflicts, *conflict)
				if rec != nil {
					if fg.conflicts == nil {
						fg.conflicts = map[string]*Conflict{}
					}
					fg.conflicts[label] = conflict
				}
			}
			for _, w := range winners {
				atom, err := g.NewAtom(w.Value)
				if err != nil {
					return nil, fmt.Errorf("mediator: reconcile %s.%s: %v", fg.key, label, err)
				}
				if err := g.AddRef(fg.oid, label, atom); err != nil {
					return nil, err
				}
			}
		}
		g.SortRefs(fg.oid)
	}
	return g, g.Validate()
}

// labeledSV is one gene-describing contribution derived from a linked
// entity.
type labeledSV struct {
	label string
	sv    SourceValue
}

// contribsFor computes the gene-describing contributions a linked entity
// makes to one owner gene, respecting attribution rules: a disease's
// symbols/position describe a gene only when the attribution is
// unambiguous (single-gene disease, or the gene is the entry's first
// locus — our OMIM encodes the first locus's position). geneIDs is the
// owner gene's GeneID set. Both fresh fusion and snapshot patching derive
// contributions through this one function.
func contribsFor(g *oem.Graph, e oem.OID, geneIDs map[int64]bool, concept, source string) []labeledSV {
	rules := linkContrib[concept]
	var out []labeledSV
	for _, r := range rules {
		switch {
		case concept == "Disease" && r.From == "Symbol":
			ids := intsUnder(g, e, "GeneID")
			if len(ids) != 1 || !geneIDs[ids[0]] {
				continue
			}
			for _, s := range stringsUnder(g, e, "Symbol") {
				out = append(out, labeledSV{label: r.To, sv: SourceValue{Source: source, Value: gml.CanonicalSymbol(s)}})
			}
		case concept == "Disease" && r.From == "Position":
			ids := intsUnder(g, e, "GeneID")
			if len(ids) == 0 || !geneIDs[ids[0]] {
				continue // position belongs to the first locus
			}
			if v := stringUnder(g, e, "Position"); v != "" {
				out = append(out, labeledSV{label: r.To, sv: SourceValue{Source: source, Value: v}})
			}
		default:
			for _, t := range g.Children(e, r.From) {
				o := g.Get(t)
				if o == nil || !o.IsAtomic() {
					continue
				}
				v := o.Value()
				if r.To == "Symbol" {
					if s, ok := v.(string); ok {
						v = gml.CanonicalSymbol(s)
					}
				}
				out = append(out, labeledSV{label: r.To, sv: SourceValue{Source: source, Value: v}})
			}
		}
	}
	return out
}

// isReconciled reports whether the label participates in reconciliation.
// Symbol contributions are canonicalized so case-only differences do not
// masquerade as conflicts.
func isReconciled(label string) bool {
	for _, l := range reconciledLabels {
		if strings.EqualFold(l, label) {
			return true
		}
	}
	return false
}

func canonLabel(label string) string {
	for _, l := range reconciledLabels {
		if strings.EqualFold(l, label) {
			return l
		}
	}
	return label
}

func conceptQueriedDirectly(an *analysis, concept string) bool {
	if an.needAll {
		return true
	}
	for _, c := range an.fromConcepts {
		if c == concept {
			return true
		}
	}
	return false
}

func stringUnder(g *oem.Graph, id oem.OID, label string) string {
	return g.StringUnder(id, label)
}

func stringsUnder(g *oem.Graph, id oem.OID, label string) []string {
	var out []string
	for _, t := range g.Children(id, label) {
		o := g.Get(t)
		if o != nil && (o.Kind == oem.KindString || o.Kind == oem.KindURL) {
			out = append(out, o.Str)
		}
	}
	return out
}

func intUnder(g *oem.Graph, id oem.OID, label string) (int64, bool) {
	return g.IntUnder(id, label)
}

func intsUnder(g *oem.Graph, id oem.OID, label string) []int64 {
	var out []int64
	for _, t := range g.Children(id, label) {
		o := g.Get(t)
		if o != nil && o.Kind == oem.KindInt {
			out = append(out, o.Int)
		}
	}
	return out
}
