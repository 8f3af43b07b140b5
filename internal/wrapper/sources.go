package wrapper

import (
	"context"
	"fmt"

	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/sources/protdb"
)

// This file holds the four concrete wrappers. Each preserves its source's
// own vocabulary and value encodings; compare the label spellings across
// wrappers to see the heterogeneity MDSM must bridge:
//
//	LocusLink: LocusID  Symbol      Organism  Description  Position      Links
//	GO assoc.:           GeneSymbol Organism               (via Term)
//	OMIM:      Locus     GeneSymbol           Title        CytoPosition  WebLink
//	ProtDB:    DR        GN         OS        DE                         —

// LocusLinkWrapper wraps the relational LocusLink source. Its OML model is
// the paper's Figure 2/3 structure: per-locus complex objects with LocusID,
// Organism, Symbol, Description, Position and a nested Links object whose
// edges are url atoms.
type LocusLinkWrapper struct {
	db    *locuslink.DB
	cache cachedModel
}

// NewLocusLink wraps a LocusLink database.
func NewLocusLink(db *locuslink.DB) *LocusLinkWrapper {
	w := &LocusLinkWrapper{db: db}
	w.cache.build = w.buildModel
	return w
}

// Name implements Wrapper.
func (w *LocusLinkWrapper) Name() string { return "LocusLink" }

// EntityLabel implements Wrapper.
func (w *LocusLinkWrapper) EntityLabel() string { return "Locus" }

// Model implements Wrapper.
func (w *LocusLinkWrapper) Model() (*oem.Graph, error) { return w.cache.get() }

// ModelCtx implements ContextModeler: a context-bounded Model.
func (w *LocusLinkWrapper) ModelCtx(ctx context.Context) (*oem.Graph, error) {
	return w.cache.getCtx(ctx)
}

// Refresh implements Wrapper.
func (w *LocusLinkWrapper) Refresh() { w.cache.invalidate() }

// Version reports the model version (bumped by Refresh).
func (w *LocusLinkWrapper) Version() uint64 { return w.cache.version() }

func (w *LocusLinkWrapper) buildModel() (*oem.Graph, error) {
	g := oem.NewGraph()
	var entities []oem.Ref
	w.db.Scan(func(l *locuslink.Locus) bool {
		refs := []oem.Ref{
			{Label: "LocusID", Target: g.NewInt(int64(l.LocusID))},
			{Label: "Organism", Target: g.NewString(l.Organism)},
			{Label: "Symbol", Target: g.NewString(l.Symbol)},
		}
		if l.Description != "" {
			refs = append(refs, oem.Ref{Label: "Description", Target: g.NewString(l.Description)})
		}
		refs = append(refs, oem.Ref{Label: "Position", Target: g.NewString(l.Position)})
		refs = append(refs, oem.Ref{Label: "WebLink", Target: g.NewURL(locuslink.SelfURL(l.LocusID))})
		for _, a := range l.Aliases {
			refs = append(refs, oem.Ref{Label: "Alias", Target: g.NewString(a)})
		}
		if len(l.Links) > 0 {
			var linkRefs []oem.Ref
			for _, lk := range l.Links {
				linkRefs = append(linkRefs, oem.Ref{Label: lk.TargetDB, Target: g.NewURL(lk.URL)})
			}
			links := g.NewComplex(linkRefs...)
			refs = append(refs, oem.Ref{Label: "Links", Target: links})
		}
		entities = append(entities, oem.Ref{Label: "Locus", Target: g.NewComplex(refs...)})
		return true
	})
	root := g.NewComplex(entities...)
	g.SetRoot("LocusLink", root)
	return g, g.Validate()
}

// GoWrapper wraps the Gene Ontology source. Its OML model has two entity
// populations under the root: Term objects (the ontology) and Annotation
// objects (gene-term associations), with Annotation -> Term references so
// the graph is connected the way OEM encourages.
type GoWrapper struct {
	store *geneontology.Store
	cache cachedModel
}

// NewGeneOntology wraps a GO store.
func NewGeneOntology(s *geneontology.Store) *GoWrapper {
	w := &GoWrapper{store: s}
	w.cache.build = w.buildModel
	return w
}

// Name implements Wrapper.
func (w *GoWrapper) Name() string { return "GO" }

// EntityLabel implements Wrapper.
func (w *GoWrapper) EntityLabel() string { return "Annotation" }

// Model implements Wrapper.
func (w *GoWrapper) Model() (*oem.Graph, error) { return w.cache.get() }

// ModelCtx implements ContextModeler: a context-bounded Model.
func (w *GoWrapper) ModelCtx(ctx context.Context) (*oem.Graph, error) { return w.cache.getCtx(ctx) }

// Refresh implements Wrapper.
func (w *GoWrapper) Refresh() { w.cache.invalidate() }

// Version reports the model version (bumped by Refresh).
func (w *GoWrapper) Version() uint64 { return w.cache.version() }

func (w *GoWrapper) buildModel() (*oem.Graph, error) {
	g := oem.NewGraph()
	termOID := map[string]oem.OID{}
	var rootRefs []oem.Ref
	w.store.Terms(func(t *geneontology.Term) bool {
		refs := []oem.Ref{
			{Label: "GoID", Target: g.NewString(t.ID)},
			{Label: "Name", Target: g.NewString(t.Name)},
			{Label: "Namespace", Target: g.NewString(t.Namespace)},
			{Label: "Definition", Target: g.NewString(t.Def)},
			{Label: "WebLink", Target: g.NewURL(locuslink.GOURLPrefix + t.ID)},
		}
		id := g.NewComplex(refs...)
		termOID[t.ID] = id
		rootRefs = append(rootRefs, oem.Ref{Label: "Term", Target: id})
		return true
	})
	// Second pass: is_a edges between term objects.
	w.store.Terms(func(t *geneontology.Term) bool {
		for _, p := range t.IsA {
			if pid, ok := termOID[p]; ok {
				_ = g.AddRef(termOID[t.ID], "IsA", pid)
			}
		}
		return true
	})
	w.store.Associations(func(a geneontology.Association) bool {
		refs := []oem.Ref{
			{Label: "GeneSymbol", Target: g.NewString(a.Symbol)},
			{Label: "Organism", Target: g.NewString(a.Organism)},
			{Label: "GoID", Target: g.NewString(a.TermID)},
			{Label: "Evidence", Target: g.NewString(a.Evidence)},
		}
		if tid, ok := termOID[a.TermID]; ok {
			refs = append(refs, oem.Ref{Label: "Term", Target: tid})
		}
		rootRefs = append(rootRefs, oem.Ref{Label: "Annotation", Target: g.NewComplex(refs...)})
		return true
	})
	root := g.NewComplex(rootRefs...)
	g.SetRoot("GO", root)
	return g, g.Validate()
}

// OMIMWrapper wraps the OMIM flat-file source. Note the deliberately
// different vocabulary: MimNumber, Title, GeneSymbol, Locus (with raw
// "LL<id>" encoding), CytoPosition (possibly "chr..." encoded), and a
// WebLink url per entry.
type OMIMWrapper struct {
	store *omim.Store
	cache cachedModel
}

// NewOMIM wraps an OMIM store.
func NewOMIM(s *omim.Store) *OMIMWrapper {
	w := &OMIMWrapper{store: s}
	w.cache.build = w.buildModel
	return w
}

// Name implements Wrapper.
func (w *OMIMWrapper) Name() string { return "OMIM" }

// EntityLabel implements Wrapper.
func (w *OMIMWrapper) EntityLabel() string { return "Entry" }

// Model implements Wrapper.
func (w *OMIMWrapper) Model() (*oem.Graph, error) { return w.cache.get() }

// ModelCtx implements ContextModeler: a context-bounded Model.
func (w *OMIMWrapper) ModelCtx(ctx context.Context) (*oem.Graph, error) { return w.cache.getCtx(ctx) }

// Refresh implements Wrapper.
func (w *OMIMWrapper) Refresh() { w.cache.invalidate() }

// Version reports the model version (bumped by Refresh).
func (w *OMIMWrapper) Version() uint64 { return w.cache.version() }

func (w *OMIMWrapper) buildModel() (*oem.Graph, error) {
	g := oem.NewGraph()
	var rootRefs []oem.Ref
	w.store.Scan(func(e *omim.Entry) bool {
		refs := []oem.Ref{
			{Label: "MimNumber", Target: g.NewInt(int64(e.MIM))},
			{Label: "Title", Target: g.NewString(e.Title)},
		}
		for _, gs := range e.GeneSymbols {
			refs = append(refs, oem.Ref{Label: "GeneSymbol", Target: g.NewString(gs)})
		}
		for _, l := range e.Loci {
			// Raw prefixed form, as stored; the mapping module's
			// transformation call strips it.
			refs = append(refs, oem.Ref{Label: "Locus", Target: g.NewString(fmt.Sprintf("LL%d", l))})
		}
		if e.Position != "" {
			refs = append(refs, oem.Ref{Label: "CytoPosition", Target: g.NewString(e.Position)})
		}
		if e.Inheritance != "" {
			refs = append(refs, oem.Ref{Label: "Inheritance", Target: g.NewString(e.Inheritance)})
		}
		refs = append(refs, oem.Ref{Label: "WebLink", Target: g.NewURL(fmt.Sprintf("%s%d", locuslink.OMIMURLPrefix, e.MIM))})
		rootRefs = append(rootRefs, oem.Ref{Label: "Entry", Target: g.NewComplex(refs...)})
		return true
	})
	root := g.NewComplex(rootRefs...)
	g.SetRoot("OMIM", root)
	return g, g.Validate()
}

// ProtWrapper wraps the SwissProt-like protein source plugged in at runtime
// by experiment E11. Its labels are two-letter SwissProt line codes, the
// hardest vocabulary for the matcher in this corpus.
type ProtWrapper struct {
	store *protdb.Store
	cache cachedModel
}

// NewProtDB wraps a protein store.
func NewProtDB(s *protdb.Store) *ProtWrapper {
	w := &ProtWrapper{store: s}
	w.cache.build = w.buildModel
	return w
}

// Name implements Wrapper.
func (w *ProtWrapper) Name() string { return "ProtDB" }

// EntityLabel implements Wrapper.
func (w *ProtWrapper) EntityLabel() string { return "Protein" }

// Model implements Wrapper.
func (w *ProtWrapper) Model() (*oem.Graph, error) { return w.cache.get() }

// ModelCtx implements ContextModeler: a context-bounded Model.
func (w *ProtWrapper) ModelCtx(ctx context.Context) (*oem.Graph, error) { return w.cache.getCtx(ctx) }

// Refresh implements Wrapper.
func (w *ProtWrapper) Refresh() { w.cache.invalidate() }

// Version reports the model version (bumped by Refresh).
func (w *ProtWrapper) Version() uint64 { return w.cache.version() }

func (w *ProtWrapper) buildModel() (*oem.Graph, error) {
	g := oem.NewGraph()
	var rootRefs []oem.Ref
	w.store.Scan(func(p *protdb.Protein) bool {
		refs := []oem.Ref{
			{Label: "AC", Target: g.NewString(p.Accession)},
			{Label: "GN", Target: g.NewString(p.GeneName)},
			{Label: "OS", Target: g.NewString(p.OrganismS)},
			{Label: "DE", Target: g.NewString(p.Descr)},
		}
		for _, kw := range p.Keywords {
			refs = append(refs, oem.Ref{Label: "KW", Target: g.NewString(kw)})
		}
		if p.LocusID != 0 {
			refs = append(refs, oem.Ref{Label: "DR", Target: g.NewString(fmt.Sprintf("LocusLink; %d", p.LocusID))})
		}
		rootRefs = append(rootRefs, oem.Ref{Label: "Protein", Target: g.NewComplex(refs...)})
		return true
	})
	root := g.NewComplex(rootRefs...)
	g.SetRoot("ProtDB", root)
	return g, g.Validate()
}
