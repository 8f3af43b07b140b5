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
	// winner one of the concept's sources supplied.
	atoms map[string]map[oem.OID]struct{}
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
	p := &provenance{atoms: map[string]map[oem.OID]struct{}{}, rivals: map[string]map[string]string{}}
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
				set = map[oem.OID]struct{}{}
				p.atoms[c] = set
			}
			for _, r := range fs.graph.Get(fg.oid).Refs {
				if r.Label == label {
					set[r.Target] = struct{}{}
				}
			}
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
// needs reports whether the query needs a concept.
func (w *World) MaskFor(hidden []string, needs func(concept string) bool) (mask *oem.Mask, decline string) {
	if !needs("Gene") {
		return oem.NewMask(hidden), "" // no gene is reachable: none of their atoms to hide
	}
	if w.prov == nil {
		return nil, fmt.Sprintf("epoch carries no attribute provenance (policy %v); cannot mask %s", w.st.policy, strings.Join(hidden, ", "))
	}
	atoms := make([]map[oem.OID]struct{}, 0, len(hidden))
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
		atoms = append(atoms, w.prov.atoms[c])
	}
	return oem.NewMask(hidden, atoms...), ""
}
