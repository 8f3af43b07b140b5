package gml

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/match"
	"repro/internal/oem"
	"repro/internal/wrapper"
)

// Rule maps one global label to one local label with a transformation call.
type Rule struct {
	Global    string
	Local     string
	Kind      oem.Kind // global kind
	Transform Transform
	Score     float64
}

// SourceMapping is the full mapping of one source onto a global concept:
// the output of the mapping module for that source.
type SourceMapping struct {
	Source  string
	Concept string
	Entity  string // the source's entity label
	Rules   []Rule
	Match   match.Result
}

// RuleFor returns the rule producing the given global label, or nil.
func (m *SourceMapping) RuleFor(global string) *Rule {
	for i := range m.Rules {
		if m.Rules[i].Global == global {
			return &m.Rules[i]
		}
	}
	return nil
}

// Global is the ANNODA-GML model: concepts plus per-source mappings. The
// model is virtual — the mediator decomposes queries against it — but can
// also be materialized into a single OEM graph (Materialize) for display
// and for the E3 paper query.
type Global struct {
	mu       sync.RWMutex
	Concepts []Concept
	Mappings []*SourceMapping
	Opts     match.Options
}

// Build constructs the global model over every registered wrapper.
func Build(reg *wrapper.Registry, opts match.Options) (*Global, error) {
	gl := &Global{Concepts: DomainConcepts(), Opts: opts}
	for _, w := range reg.All() {
		if _, err := gl.PlugIn(w); err != nil {
			return nil, err
		}
	}
	return gl, nil
}

// ConceptByName returns the concept, or nil.
func (gl *Global) ConceptByName(name string) *Concept {
	for i := range gl.Concepts {
		if gl.Concepts[i].Name == name {
			return &gl.Concepts[i]
		}
	}
	return nil
}

// MappingFor returns the mapping for a source, or nil.
func (gl *Global) MappingFor(source string) *SourceMapping {
	gl.mu.RLock()
	defer gl.mu.RUnlock()
	for _, m := range gl.Mappings {
		if m.Source == source {
			return m
		}
	}
	return nil
}

// SourcesFor returns the sources mapped onto the given concept, in
// registration order — the mediator's source-pruning input.
func (gl *Global) SourcesFor(concept string) []string {
	gl.mu.RLock()
	defer gl.mu.RUnlock()
	var out []string
	for _, m := range gl.Mappings {
		if m.Concept == concept {
			out = append(out, m.Source)
		}
	}
	return out
}

// PlugIn maps a new source onto the global model: the paper's two-step
// procedure — "1) mapping new annotation data source to the ANNODA global
// schema by using the mapping rules, transformation, and database
// descriptions, 2) creating the mediator interface" (step 2 happens in the
// mediator when it sees the new mapping).
func (gl *Global) PlugIn(w wrapper.Wrapper) (*SourceMapping, error) {
	g, err := w.Model()
	if err != nil {
		return nil, err
	}
	schema, err := wrapper.InferSchema(g, w.Name(), w.EntityLabel())
	if err != nil {
		return nil, err
	}
	samples := collectSamples(g, w.Name(), w.EntityLabel(), 8)

	// Choose the concept with the best total assignment score.
	var best match.Result
	bestConcept := ""
	bestScore := -1.0
	for _, c := range gl.Concepts {
		res := match.Match(schema, c.Schema(), gl.Opts)
		if s := res.TotalScore(); s > bestScore {
			bestScore, best, bestConcept = s, res, c.Name
		}
	}
	if bestConcept == "" || len(best.Pairs) == 0 {
		return nil, fmt.Errorf("gml: source %q matches no concept", w.Name())
	}
	concept := gl.ConceptByName(bestConcept)
	conceptSchema := concept.Schema()
	m := &SourceMapping{
		Source:  w.Name(),
		Concept: bestConcept,
		Entity:  w.EntityLabel(),
		Match:   best,
	}
	for _, p := range best.Pairs {
		gLabel := conceptSchema.Label(p.B)
		tr := TIdentity
		if gLabel.Kind != oem.KindComplex {
			tr = InferTransform(p.B, gLabel.Kind == oem.KindInt, samples[p.A])
		}
		m.Rules = append(m.Rules, Rule{
			Global:    p.B,
			Local:     p.A,
			Kind:      gLabel.Kind,
			Transform: tr,
			Score:     p.Score,
		})
	}
	sort.Slice(m.Rules, func(i, j int) bool { return m.Rules[i].Global < m.Rules[j].Global })

	gl.mu.Lock()
	defer gl.mu.Unlock()
	for _, ex := range gl.Mappings {
		if ex.Source == m.Source {
			return nil, fmt.Errorf("gml: source %q already mapped", m.Source)
		}
	}
	gl.Mappings = append(gl.Mappings, m)
	return m, nil
}

// Unplug removes a source's mapping; it reports whether one existed.
func (gl *Global) Unplug(source string) bool {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	for i, m := range gl.Mappings {
		if m.Source == source {
			gl.Mappings = append(gl.Mappings[:i], gl.Mappings[i+1:]...)
			return true
		}
	}
	return false
}

// collectSamples gathers up to n atomic sample values (string form) per
// local label; transform inference keys off them.
func collectSamples(g *oem.Graph, root, entity string, n int) map[string][]string {
	out := map[string][]string{}
	r := g.Root(root)
	for _, e := range g.Children(r, entity) {
		eo := g.Get(e)
		if eo == nil {
			continue
		}
		for _, ref := range eo.Refs {
			if len(out[ref.Label]) >= n {
				continue
			}
			c := g.Get(ref.Target)
			if c == nil || !c.IsAtomic() {
				continue
			}
			switch c.Kind {
			case oem.KindString, oem.KindURL:
				out[ref.Label] = append(out[ref.Label], c.Str)
			default:
				out[ref.Label] = append(out[ref.Label], c.AtomString())
			}
		}
	}
	return out
}

// TranslateEntity copies one local entity into dst under the global
// vocabulary: labels renamed per the mapping rules, values run through
// their transformation calls, complex children imported verbatim. The copy
// shares no structure with any other translated entity.
func TranslateEntity(dst *oem.Graph, src *oem.Graph, entity oem.OID, m *SourceMapping) (oem.OID, error) {
	return NewTranslator(dst, src, m).Entity(entity)
}

// Translator translates entities of one source model into one destination
// graph. Complex children go through a single remap held for the
// translator's lifetime, so OML substructure shared between entities (GO
// annotations pointing into one Term DAG) is copied into dst once and stays
// shared there. Importing an entity out of dst (oem.Graph.Import) unshares
// it again: the importer sees exactly the subgraph TranslateEntity builds.
type Translator struct {
	dst, src *oem.Graph
	m        *SourceMapping
	remap    map[oem.OID]oem.OID
}

// NewTranslator returns a translator of src's entities into dst under m.
func NewTranslator(dst, src *oem.Graph, m *SourceMapping) *Translator {
	return &Translator{dst: dst, src: src, m: m, remap: make(map[oem.OID]oem.OID)}
}

// Entity translates one entity and returns its oid in the destination.
func (t *Translator) Entity(entity oem.OID) (oem.OID, error) {
	dst, src, m := t.dst, t.src, t.m
	eo := src.Get(entity)
	if eo == nil || !eo.IsComplex() {
		return 0, fmt.Errorf("gml: entity %v is not a complex object", entity)
	}
	out := dst.NewComplex()
	refs := make([]oem.Ref, 0, len(eo.Refs))
	for _, rule := range m.Rules {
		for _, target := range eo.RefTargets(rule.Local) {
			to := src.Get(target)
			if to == nil {
				continue
			}
			if to.IsComplex() {
				imported, err := dst.ImportShared(src, target, t.remap)
				if err != nil {
					return 0, err
				}
				refs = append(refs, oem.Ref{Label: rule.Global, Target: imported})
				continue
			}
			v, err := Apply(rule.Transform, to.Value())
			if err != nil {
				// A transformation miss on one value must not sink the
				// whole entity; keep the raw value (reconciliation sees it).
				v = to.Value()
			}
			var atom oem.OID
			switch rule.Kind {
			case oem.KindURL:
				if s, ok := v.(string); ok {
					atom = dst.NewURL(s)
				}
			case oem.KindInt:
				switch x := v.(type) {
				case int64:
					atom = dst.NewInt(x)
				case float64:
					atom = dst.NewInt(int64(x))
				}
			}
			if atom == 0 {
				a, err := dst.NewAtom(v)
				if err != nil {
					return 0, fmt.Errorf("gml: translate %s.%s: %v", m.Source, rule.Local, err)
				}
				atom = a
			}
			refs = append(refs, oem.Ref{Label: rule.Global, Target: atom})
		}
	}
	if err := dst.SetRefs(out, refs); err != nil {
		return 0, err
	}
	return out, nil
}

// Materialize renders the whole global model into one OEM graph — the
// Figure 4 structure and the database the paper's §4.1 query runs against:
//
//	ANNODA-GML &1 complex
//	  Source &k complex
//	    SourceID  integer
//	    Name      string
//	    Structure complex   (one Label object per mapping rule)
//	    Content   complex   (translated entities under concept labels)
func (gl *Global) Materialize(reg *wrapper.Registry) (*oem.Graph, error) {
	g := oem.NewGraph()
	var sourceRefs []oem.Ref
	gl.mu.RLock()
	mappings := append([]*SourceMapping(nil), gl.Mappings...)
	gl.mu.RUnlock()
	for i, m := range mappings {
		w := reg.Get(m.Source)
		if w == nil {
			return nil, fmt.Errorf("gml: mapped source %q not registered", m.Source)
		}
		src, err := w.Model()
		if err != nil {
			return nil, err
		}
		// Structure: the machine-readable database description.
		var structRefs []oem.Ref
		for _, r := range m.Rules {
			lbl := g.NewComplex(
				oem.Ref{Label: "Name", Target: g.NewString(r.Global)},
				oem.Ref{Label: "Type", Target: g.NewString(r.Kind.String())},
				oem.Ref{Label: "MapsTo", Target: g.NewString(r.Local)},
				oem.Ref{Label: "Transform", Target: g.NewString(string(r.Transform))},
			)
			structRefs = append(structRefs, oem.Ref{Label: "Label", Target: lbl})
		}
		structure := g.NewComplex(structRefs...)
		// Content: every entity translated into the global vocabulary.
		var contentRefs []oem.Ref
		for _, e := range src.Children(src.Root(m.Source), m.Entity) {
			te, err := TranslateEntity(g, src, e, m)
			if err != nil {
				return nil, err
			}
			contentRefs = append(contentRefs, oem.Ref{Label: m.Concept, Target: te})
		}
		content := g.NewComplex(contentRefs...)
		sourceObj := g.NewComplex(
			oem.Ref{Label: "SourceID", Target: g.NewInt(int64(i + 1))},
			oem.Ref{Label: "Name", Target: g.NewString(m.Source)},
			oem.Ref{Label: "Content", Target: content},
			oem.Ref{Label: "Structure", Target: structure},
		)
		sourceRefs = append(sourceRefs, oem.Ref{Label: "Source", Target: sourceObj})
	}
	root := g.NewComplex(sourceRefs...)
	g.SetRoot("ANNODA-GML", root)
	return g, g.Validate()
}

// Describe renders the mappings as text (the CLI's "show mappings" output).
func (gl *Global) Describe() string {
	gl.mu.RLock()
	defer gl.mu.RUnlock()
	var sb strings.Builder
	for _, m := range gl.Mappings {
		fmt.Fprintf(&sb, "source %s -> concept %s (entity %s)\n", m.Source, m.Concept, m.Entity)
		for _, r := range m.Rules {
			fmt.Fprintf(&sb, "  %-12s <- %-12s  %-18s score %.3f\n", r.Global, r.Local, r.Transform, r.Score)
		}
	}
	return sb.String()
}
