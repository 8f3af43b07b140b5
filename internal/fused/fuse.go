package fused

import (
	"strings"

	"repro/internal/gml"
	"repro/internal/oem"
)

// linkContrib declares which labels of a linked entity also describe the
// gene itself; fusion feeds them into reconciliation.
var linkContrib = map[string][]struct{ From, To string }{
	"Disease":    {{From: "Symbol", To: "Symbol"}, {From: "Position", To: "Position"}},
	"Annotation": {{From: "Organism", To: "Organism"}},
	"Protein":    {{From: "Symbol", To: "Symbol"}, {From: "Organism", To: "Organism"}, {From: "Description", To: "Description"}},
}

// reconciledLabels are the gene attributes reconciliation applies to.
var reconciledLabels = []string{"Symbol", "Organism", "Position", "Description"}

// fusedGene is one fused gene object: reconciled attributes plus links to
// Annotation/Disease/Protein entities. Fuse uses only the join bookkeeping
// (key, symbols, geneIDs, contribs); a recorded fusion additionally tracks
// parts and conflicts so a ChangeSet can be applied to the fused graph (see
// state.go).
type fusedGene struct {
	oid      oem.OID
	key      string // canonical symbol, the fusion key
	geneIDs  map[int64]bool
	symbols  map[string]bool // canonical symbol + aliases
	contribs map[string][]SourceValue

	// Recorder-only bookkeeping (nil/empty on the per-query path).
	parts     []*genePart
	conflicts map[string]*Conflict

	// Sharding bookkeeping: ord is the global first-appearance index of
	// the gene's first entity (the deterministic merge order), shard the
	// worker that owns the gene.
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
		fe.symbols = []string{gml.CanonicalSymbol(g.StringUnder(e, "Symbol"))}
	case "Disease":
		fe.geneIDs = intsUnder(g, e, "GeneID")
		for _, s := range stringsUnder(g, e, "Symbol") {
			fe.symbols = append(fe.symbols, gml.CanonicalSymbol(s))
		}
	case "Protein":
		if id, ok := g.IntUnder(e, "GeneID"); ok {
			fe.geneIDs = []int64{id}
		} else {
			fe.symbols = []string{gml.CanonicalSymbol(g.StringUnder(e, "Symbol"))}
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
// contributions, and union join keys. Genes are wired to the root at merge
// time; ord stamps a created gene's global first-appearance index.
func fuseGeneEntity(g *oem.Graph, pop *Population, i int, key string,
	byKey map[string]*fusedGene, genes *[]*fusedGene, ord int, recorded bool) error {
	e := pop.Entities[i]
	fg, exists := byKey[key]
	if !exists {
		fg = newFusedGene(key)
		fg.oid = g.NewComplex()
		fg.ord = ord
		byKey[key] = fg
		*genes = append(*genes, fg)
	}
	var part *genePart
	if recorded {
		part = &genePart{source: pop.Source, hash: pop.Hashes[i], symbols: []string{key}}
		fg.parts = append(fg.parts, part)
	}
	// Copy non-reconciled labels from the entity (first contributor wins
	// for structure; atoms under reconciled labels become contributions
	// instead).
	eo := pop.Graph.Get(e)
	for _, ref := range eo.Refs {
		if lbl, ok := reconciledLabel(ref.Label); ok {
			c := pop.Graph.Get(ref.Target)
			if c != nil && c.IsAtomic() {
				v := c.Value()
				fg.contribs[lbl] = append(fg.contribs[lbl],
					SourceValue{Source: pop.Source, Value: v})
				if part != nil {
					part.contribs = append(part.contribs, contribRecord{label: lbl, valueKey: valueKey(v)})
				}
			}
			continue
		}
		imported, err := g.Import(pop.Graph, ref.Target)
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
	for _, a := range stringsUnder(pop.Graph, e, "Alias") {
		cs := gml.CanonicalSymbol(a)
		fg.symbols[cs] = true
		if part != nil {
			part.symbols = append(part.symbols, cs)
		}
	}
	if id, ok := pop.Graph.IntUnder(e, "GeneID"); ok {
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
// When recorded, the fusion bookkeeping (gene parts, resident entities,
// join indexes, per-gene conflicts) is captured too, so the resulting graph
// can later be patched from a delta.ChangeSet; the populations must then
// carry entity hashes. The work is sharded by gene key (fuse_parallel.go);
// the shard count changes neither the fused world nor the conflict list.
func fuseInto(cfg *Config, pops []*Population, recorded bool) (*fuseState, error) {
	priority := make(map[string]int, len(cfg.Sources))
	for i, s := range cfg.Sources {
		priority[s] = i
	}
	st := &fuseState{policy: cfg.Policy, priority: priority}
	var rec *fuseState
	if recorded {
		rec = st
	}
	var err error
	if st.graph, st.conflicts, err = fuseSharded(cfg, pops, priority, rec); err != nil {
		return nil, err
	}
	return st, nil
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
			if v := g.StringUnder(e, "Position"); v != "" {
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

// reconciledLabel reports whether the label participates in
// reconciliation, and its canonical spelling, so case-only differences do
// not masquerade as conflicts.
func reconciledLabel(label string) (string, bool) {
	for _, l := range reconciledLabels {
		if strings.EqualFold(l, label) {
			return l, true
		}
	}
	return label, false
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
