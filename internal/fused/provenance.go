package fused

import (
	"fmt"
	"strings"

	"repro/internal/oem"
)

// Pruning as a view. The per-query pipeline answers a query that names only
// some concepts by fusing only those concepts' sources. The pinned epoch
// holds the fusion of all of them, and differs from a pruned fusion in
// exactly two ways a query can observe:
//
//   - Link edges. Fusion emits a concept-named label in two places —
//     root→entity and gene→entity — and nowhere else: no global attribute
//     is named after a concept and no source nests a child under such a label
//     (TestConceptNamesLabelOnlyLinkEdges walks the fused graph for both; a
//     source that did would need hiding limited to root and gene references).
//     A query that could traverse such an edge has named the concept, or used
//     a wildcard and needs everything; what does meet the edges of an unnamed
//     concept is answer import, which copies a selected gene's whole subtree.
//   - Reconciled atoms. linkContrib lets a linked Protein/Disease/Annotation
//     supply a gene's own attribute, so a gene with no LocusLink Description
//     carries ProtDB's in the epoch and none in a ProtDB-pruned fusion.
//
// So a pruned query is evaluated on the epoch under an oem.Mask hiding the
// unnamed concepts' labels and the atoms their sources won — unless hiding an
// atom would also hide what a pruned fusion would have put in its place, in
// which case MaskFor declines and the pipeline answers.

// provenance is what a sealed world remembers, per link concept, about the
// gene attributes the concept's sources decided. It is computed by seal and
// never written after.
type provenance struct {
	// atoms: concept -> the gene-attribute atoms whose PolicyPreferPrimary
	// winner one of the concept's sources supplied, as a set of oids.
	atoms map[string]oem.Bitset
	// rivals: concept -> every other concept with a losing contribution to
	// an attribute the concept won, with one such attribute ("KEY.Label",
	// the smallest) as the example a PathReason cites. Hiding the winner's
	// atom is only right while the rival is hidden too: a fusion pruning
	// the winner alone would have materialized the rival's value.
	rivals map[string]map[string]string
}

// provenanceOf scans a fuse state's recorded gene contributions for the
// attributes link-concept sources won. It is called from seal only, so
// every world — built, patched, restored — carries the provenance of
// exactly its graph; nothing is maintained incrementally. Policies other
// than PolicyPreferPrimary have no single winner to attribute and get none
// (the gate never masks under them).
func provenanceOf(fs *fuseState) *provenance {
	if fs.policy != PolicyPreferPrimary {
		return nil
	}
	conceptOf := make(map[string]string, len(fs.geneParts)+len(fs.ents))
	for src := range fs.geneParts {
		conceptOf[src] = "Gene"
	}
	for src, byHash := range fs.ents {
		for _, list := range byHash {
			conceptOf[src] = list[0].concept
			break
		}
	}
	p := &provenance{atoms: map[string]oem.Bitset{}, rivals: map[string]map[string]string{}}
	for _, fg := range fs.genes {
		for label, svs := range fg.contribs {
			if len(svs) == 0 {
				continue
			}
			// reconcile's PolicyPreferPrimary winner comes from the
			// contribution of lowest priority rank, the first on a tie.
			win := svs[0].Source
			for _, sv := range svs[1:] {
				if fs.priority[sv.Source] < fs.priority[win] {
					win = sv.Source
				}
			}
			c := conceptOf[win]
			if c == "Gene" {
				continue // hiding Gene hides the whole gene
			}
			set := p.atoms[c]
			if set == nil {
				set = oem.NewBitset(fs.graph.Len())
			}
			for _, r := range fs.graph.Get(fg.oid).Refs {
				if r.Label == label {
					set.Add(int(r.Target))
				}
			}
			p.atoms[c] = set
			for _, sv := range svs {
				if rc := conceptOf[sv.Source]; rc != c {
					if p.rivals[c] == nil {
						p.rivals[c] = map[string]string{}
					}
					if ex := fg.key + "." + label; p.rivals[c][rc] == "" || ex < p.rivals[c][rc] {
						p.rivals[c][rc] = ex
					}
				}
			}
		}
	}
	return p
}

// MaskFor builds the mask under which w shows the world a fusion without
// the hidden concepts' sources would have built, or says why it cannot.
// needs reports whether the query needs a concept. The same hidden set
// always gets the same *oem.Mask from one world, so what a frozen graph
// memoizes per mask (its postings) is shared by every query under that
// view, and the masks live and die with the world.
func (w *World) MaskFor(hidden []string, needs func(concept string) bool) (mask *oem.Mask, decline string) {
	if !needs("Gene") {
		// No gene is reachable: none of their atoms to hide.
		return w.maskOf("L\x00"+strings.Join(hidden, "\x00"), func() *oem.Mask { return oem.NewMask(hidden, nil) }), ""
	}
	if w.prov == nil {
		return nil, fmt.Sprintf("epoch carries no attribute provenance (policy %v); cannot mask %s", w.st.policy, strings.Join(hidden, ", "))
	}
	for _, c := range hidden {
		rival := ""
		for rc := range w.prov.rivals[c] {
			if needs(rc) && (rival == "" || rc < rival) {
				rival = rc
			}
		}
		if rival != "" {
			return nil, fmt.Sprintf("cannot mask %s: its sources decide gene attributes %s's also describe (%s), and a fusion without %s would show %s's value",
				c, rival, w.prov.rivals[c][rival], c, rival)
		}
	}
	return w.maskOf("A\x00"+strings.Join(hidden, "\x00"), func() *oem.Mask {
		atoms := make([]oem.Bitset, len(hidden))
		for i, c := range hidden {
			atoms[i] = w.prov.atoms[c]
		}
		return oem.NewMask(hidden, oem.Union(atoms...))
	}), ""
}

// maskOf returns the mask w keeps under key, building and keeping it first
// when there is none; concurrent first callers agree on the one kept.
func (w *World) maskOf(key string, build func() *oem.Mask) *oem.Mask {
	if m, ok := w.masks.Load(key); ok {
		return m.(*oem.Mask)
	}
	m, _ := w.masks.LoadOrStore(key, build())
	return m.(*oem.Mask)
}
