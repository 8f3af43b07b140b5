package mediator

import (
	"fmt"
	"slices"
	"sort"
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
// which case the epoch declines and the pipeline answers.

// provenance is what a published epoch remembers, per link concept, about
// the gene attributes the concept's sources decided. Like everything an
// epoch references it is never written after publishLocked.
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

// epochProvenance scans a fuse state's recorded gene contributions for the
// attributes link-concept sources won. It is called from publishLocked only,
// so every epoch — built, delta-patched, restored, re-admitted — carries the
// provenance of exactly the graph it publishes; nothing is maintained
// incrementally. Policies other than PolicyPreferPrimary have no single
// winner to attribute and get none (the gate never masks under them).
func epochProvenance(fs *fuseState) *provenance {
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

// hiddenConcepts lists, sorted, the concepts of mapped sources the analysis
// does not need — the sources the per-query pipeline's fetch would prune.
func (m *Manager) hiddenConcepts(an *analysis) []string {
	if an.needAll {
		return nil
	}
	var hidden []string
	for _, w := range m.reg.All() {
		mp := m.gl.MappingFor(w.Name())
		if mp != nil && !an.needs(mp.Concept) && !slices.Contains(hidden, mp.Concept) {
			hidden = append(hidden, mp.Concept)
		}
	}
	sort.Strings(hidden)
	return hidden
}

// maskFor builds the mask under which ep shows the world a fusion without
// the hidden concepts' sources would have built, or says why it cannot. A
// degraded epoch is never masked: the pipeline fetches only what the query
// needs, so its answer and Stats say whether the missing source mattered.
func (ep *snapshot) maskFor(hidden []string, an *analysis) (mask *oem.Mask, decline string) {
	if len(ep.degraded) > 0 {
		return nil, fmt.Sprintf("epoch was built without %s; a query that prunes %s is answered from the sources it needs",
			strings.Join(ep.degraded, ", "), strings.Join(hidden, ", "))
	}
	if !an.needs("Gene") {
		return oem.NewMask(hidden), "" // no gene is reachable: none of their atoms to hide
	}
	if ep.prov == nil {
		return nil, fmt.Sprintf("epoch carries no attribute provenance (policy %v); cannot mask %s", ep.fs.policy, strings.Join(hidden, ", "))
	}
	atoms := make([]map[oem.OID]struct{}, 0, len(hidden))
	for _, c := range hidden {
		rival := ""
		for rc := range ep.prov.rivals[c] {
			if an.needs(rc) && (rival == "" || rc < rival) {
				rival = rc
			}
		}
		if rival != "" {
			return nil, fmt.Sprintf("cannot mask %s: its sources decide gene attributes %s's also describe (%s), and a fusion without %s would show %s's value",
				c, rival, ep.prov.rivals[c][rival], c, rival)
		}
		atoms = append(atoms, ep.prov.atoms[c])
	}
	return oem.NewMask(hidden, atoms...), ""
}
