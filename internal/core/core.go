// Package core assembles the complete ANNODA system: wrapped sources, the
// MDSM-built global model, the mediating query manager, the web-link
// navigator, the biological-question interface of Figure 5(a), the
// integrated and individual-object views of Figures 5(b) and 5(c), and the
// batch API behind the paper's "automated large-scale analysis tasks"
// requirement.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/datagen"
	"repro/internal/gml"
	"repro/internal/lorel"
	"repro/internal/match"
	"repro/internal/mediator"
	"repro/internal/navigate"
	"repro/internal/oem"
	"repro/internal/sources/geneontology"
	"repro/internal/sources/locuslink"
	"repro/internal/sources/omim"
	"repro/internal/sources/protdb"
	"repro/internal/wrapper"
)

// System is a running ANNODA instance.
type System struct {
	Corpus   *datagen.Corpus
	Registry *wrapper.Registry
	Global   *gml.Global
	Manager  *mediator.Manager
	Resolver *navigate.Resolver

	// Native handles, kept for the baselines and experiments.
	LocusLink *locuslink.DB
	GO        *geneontology.Store
	OMIM      *omim.Store
}

// New loads the three demo sources from a corpus and assembles the system.
func New(c *datagen.Corpus, opts mediator.Options) (*System, error) {
	ll, err := locuslink.Load(c)
	if err != nil {
		return nil, err
	}
	gos, err := geneontology.Load(c)
	if err != nil {
		return nil, err
	}
	om, err := omim.Load(c)
	if err != nil {
		return nil, err
	}
	reg := wrapper.NewRegistry()
	for _, w := range []wrapper.Wrapper{
		wrapper.NewLocusLink(ll), wrapper.NewGeneOntology(gos), wrapper.NewOMIM(om),
	} {
		if err := reg.Add(w); err != nil {
			return nil, err
		}
	}
	gl, err := gml.Build(reg, match.Options{})
	if err != nil {
		return nil, err
	}
	res, err := navigate.NewResolver(reg)
	if err != nil {
		return nil, err
	}
	return &System{
		Corpus:    c,
		Registry:  reg,
		Global:    gl,
		Manager:   mediator.New(reg, gl, opts),
		Resolver:  res,
		LocusLink: ll,
		GO:        gos,
		OMIM:      om,
	}, nil
}

// PlugInProteins adds the SwissProt-like source at runtime (experiment
// E11): load, wrap, register, MDSM-map, reindex navigation.
func (s *System) PlugInProteins() error {
	pd, err := protdb.Load(s.Corpus)
	if err != nil {
		return err
	}
	w := wrapper.NewProtDB(pd)
	if err := s.Registry.Add(w); err != nil {
		return err
	}
	if _, err := s.Global.PlugIn(w); err != nil {
		s.Registry.Remove(w.Name())
		return err
	}
	// Cached results were computed over the old source set; drop them so
	// the next query sees the new source.
	s.Manager.InvalidateCache()
	return s.Resolver.Reindex()
}

// Query runs a global Lorel query through the mediator.
func (s *System) Query(src string) (*lorel.Result, *mediator.Stats, error) {
	return s.Manager.QueryString(src)
}

// QueryCtx is Query recording into the request trace carried by ctx.
func (s *System) QueryCtx(ctx context.Context, src string) (*lorel.Result, *mediator.Stats, error) {
	return s.Manager.QueryStringCtx(ctx, src)
}

// QueryBatchCtx runs many Lorel queries as one batch: all snapshot-safe
// questions evaluate concurrently against a single pinned epoch, so every
// answer describes the same consistent annotation world (the THEA-style
// many-questions workload). It records into the request trace carried by
// ctx.
func (s *System) QueryBatchCtx(ctx context.Context, queries []string) ([]mediator.BatchAnswer, *mediator.Stats, error) {
	return s.Manager.AskBatchCtx(ctx, queries)
}

// ---------------------------------------------------------------------------
// The biological-question interface (Figure 5(a)).
// ---------------------------------------------------------------------------

// CombineMode selects how include-targets combine.
type CombineMode uint8

const (
	// CombineAll requires every included target (AND).
	CombineAll CombineMode = iota
	// CombineAny requires at least one included target (OR).
	CombineAny
)

// Condition narrows the search, e.g. {Field: "Organism", Op: "=", Value:
// "Homo sapiens"}. Supported ops: =, !=, <, <=, >, >=, like.
type Condition struct {
	Field string
	Op    string
	Value string
}

// Question is the structured form behind the Figure 5(a) query interface:
// the user picks sources whose annotation a gene must have (include) or
// must lack (exclude), the combination method, and search conditions —
// "users can describe a query in biological question, not in SQL".
type Question struct {
	Include    []string // source names: "GO", "OMIM", "ProtDB"
	Exclude    []string
	Combine    CombineMode
	Conditions []Condition
}

// sourceConceptLink maps a source name to the gene-side link label its
// annotations appear under.
func (s *System) sourceConceptLink(source string) (string, error) {
	m := s.Global.MappingFor(source)
	if m == nil {
		return "", fmt.Errorf("core: source %q not plugged in", source)
	}
	switch m.Concept {
	case "Annotation", "Disease", "Protein":
		return m.Concept, nil
	}
	return "", fmt.Errorf("core: source %q holds %s entities, not gene annotations", source, m.Concept)
}

// ToLorel compiles the question into the global Lorel query the mediator
// executes.
func (s *System) ToLorel(q Question) (string, error) {
	var parts []string
	var includes []string
	for _, src := range q.Include {
		label, err := s.sourceConceptLink(src)
		if err != nil {
			return "", err
		}
		includes = append(includes, "exists G."+label)
	}
	if len(includes) > 0 {
		joiner := " and "
		if q.Combine == CombineAny {
			joiner = " or "
		}
		parts = append(parts, "("+strings.Join(includes, joiner)+")")
	}
	for _, src := range q.Exclude {
		label, err := s.sourceConceptLink(src)
		if err != nil {
			return "", err
		}
		parts = append(parts, "not exists G."+label)
	}
	for _, c := range q.Conditions {
		field := strings.TrimSpace(c.Field)
		if field == "" || strings.ContainsAny(field, " .\"") {
			return "", fmt.Errorf("core: bad condition field %q", c.Field)
		}
		switch c.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			parts = append(parts, fmt.Sprintf("G.%s %s %q", field, c.Op, c.Value))
		case "like":
			parts = append(parts, fmt.Sprintf("G.%s like %q", field, c.Value))
		default:
			return "", fmt.Errorf("core: unsupported operator %q", c.Op)
		}
	}
	query := "select G from ANNODA-GML.Gene G"
	if len(parts) > 0 {
		query += " where " + strings.Join(parts, " and ")
	}
	return query, nil
}

// Ask compiles and executes a question, returning the integrated view.
func (s *System) Ask(q Question) (*View, *mediator.Stats, error) {
	return s.AskCtx(context.Background(), q)
}

// AskCtx is Ask recording into the request trace carried by ctx.
func (s *System) AskCtx(ctx context.Context, q Question) (*View, *mediator.Stats, error) {
	src, err := s.ToLorel(q)
	if err != nil {
		return nil, nil, err
	}
	res, stats, err := s.QueryCtx(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	v := NewView(res, stats)
	v.Question = src
	return v, stats, nil
}

// ---------------------------------------------------------------------------
// Views (Figures 5(b) and 5(c)).
// ---------------------------------------------------------------------------

// ViewRow is one gene row of the integrated view.
type ViewRow struct {
	GeneID   int64
	Symbol   string
	Organism string
	Position string
	GoIDs    []string
	MimIDs   []int64
	Proteins []string
	WebLinks []string
}

// View is the Figure 5(b) "annotation integrated view": one row per gene,
// with its annotations from every source, re-organized for further
// computation.
type View struct {
	Question  string
	Rows      []ViewRow
	Conflicts int
}

// NewView derives the integrated view from a query answer. It is a pure
// function of its arguments and leaves Question empty: AskCtx stamps the
// question it compiled, and a caller holding a cached answer may build the
// view once for every question that canonicalizes to it.
func NewView(res *lorel.Result, stats *mediator.Stats) *View {
	v := &View{}
	if stats != nil {
		v.Conflicts = len(stats.Conflicts)
	}
	for _, oid := range res.Graph.Children(res.Answer, "G") {
		v.Rows = append(v.Rows, rowOf(res.Graph, oid))
	}
	sort.Slice(v.Rows, func(i, j int) bool { return v.Rows[i].Symbol < v.Rows[j].Symbol })
	return v
}

// rowOf builds the integrated row of gene object oid in g: the one row
// builder behind both NewView and AnnotateBatch.
func rowOf(g *oem.Graph, oid oem.OID) ViewRow {
	row := ViewRow{
		Symbol:   g.StringUnder(oid, "Symbol"),
		Organism: g.StringUnder(oid, "Organism"),
		Position: g.StringUnder(oid, "Position"),
	}
	row.GeneID, _ = g.IntUnder(oid, "GeneID")
	for _, a := range g.Children(oid, "Annotation") {
		if id := g.StringUnder(a, "GoID"); id != "" {
			row.GoIDs = append(row.GoIDs, id)
		}
	}
	for _, d := range g.Children(oid, "Disease") {
		if mim, ok := g.IntUnder(d, "MimNumber"); ok {
			row.MimIDs = append(row.MimIDs, mim)
		}
	}
	for _, p := range g.Children(oid, "Protein") {
		if acc := g.StringUnder(p, "Accession"); acc != "" {
			row.Proteins = append(row.Proteins, acc)
		}
	}
	if wl := g.StringUnder(oid, "WebLink"); wl != "" {
		row.WebLinks = append(row.WebLinks, wl)
	}
	if links := g.Child(oid, "Links"); links != 0 {
		for _, t := range g.Get(links).Refs {
			if o := g.Get(t.Target); o != nil && o.Kind == oem.KindURL {
				row.WebLinks = append(row.WebLinks, o.Str)
			}
		}
	}
	sort.Strings(row.GoIDs)
	sort.Slice(row.MimIDs, func(i, j int) bool { return row.MimIDs[i] < row.MimIDs[j] })
	sort.Strings(row.Proteins)
	return row
}

// Format renders the view as an aligned text table.
func (v *View) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", v.Question)
	fmt.Fprintf(&sb, "%-10s %-8s %-20s %-10s %-28s %s\n", "Symbol", "GeneID", "Organism", "Position", "GO", "OMIM")
	sb.WriteString(strings.Repeat("-", 96) + "\n")
	for _, r := range v.Rows {
		goCol := strings.Join(r.GoIDs, ",")
		if len(goCol) > 28 {
			goCol = goCol[:25] + "..."
		}
		var mims []string
		for _, m := range r.MimIDs {
			mims = append(mims, fmt.Sprintf("%d", m))
		}
		fmt.Fprintf(&sb, "%-10s %-8d %-20s %-10s %-28s %s\n",
			r.Symbol, r.GeneID, r.Organism, r.Position, goCol, strings.Join(mims, ","))
	}
	fmt.Fprintf(&sb, "%d genes, %d conflicts reconciled\n", len(v.Rows), v.Conflicts)
	return sb.String()
}

// ObjectView renders the Figure 5(c) individual-object view for a web-link.
func (s *System) ObjectView(url string) (string, error) {
	t, ok := s.Resolver.Resolve(url)
	if !ok {
		return "", fmt.Errorf("core: no object behind %q", url)
	}
	return s.Resolver.Render(t)
}

// ---------------------------------------------------------------------------
// Large-scale analysis (the batch API).
// ---------------------------------------------------------------------------

// BatchResult pairs one input symbol with its integrated row (nil when the
// symbol resolves to no gene).
type BatchResult struct {
	Symbol string
	Row    *ViewRow
	Err    error
}

// AnnotateBatch annotates many gene symbols concurrently against the full
// integrated view — "the system should support automated large-scale
// analysis tasks". The integrated graph is built once and shared by every
// worker; results arrive in input order.
func (s *System) AnnotateBatch(symbols []string, workers int) ([]BatchResult, error) {
	if workers <= 0 {
		workers = 4
	}
	out := make([]BatchResult, len(symbols))
	// The whole batch reads one pinned snapshot epoch (WithFusedGraph):
	// the epoch is immutable, so every worker sees the same consistent
	// world even while a concurrent RefreshSourceCtx publishes newer epochs.
	err := s.Manager.WithFusedGraph(func(fused *oem.Graph, _ *mediator.Stats) error {
		// Index fused genes by canonical symbol once.
		idx := map[string]oem.OID{}
		root := fused.Root("ANNODA-GML")
		for _, g := range fused.Children(root, "Gene") {
			idx[gml.CanonicalSymbol(fused.StringUnder(g, "Symbol"))] = g
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i, sym := range symbols {
			wg.Add(1)
			go func(i int, sym string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				out[i] = BatchResult{Symbol: sym}
				oid, ok := idx[gml.CanonicalSymbol(sym)]
				if !ok {
					out[i].Err = fmt.Errorf("core: unknown gene %q", sym)
					return
				}
				row := rowOf(fused, oid)
				out[i].Row = &row
			}(i, sym)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure5bQuestion is the paper's running example as a Question value.
func Figure5bQuestion() Question {
	return Question{Include: []string{"GO"}, Exclude: []string{"OMIM"}}
}
