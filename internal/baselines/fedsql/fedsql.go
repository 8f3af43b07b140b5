// Package fedsql implements the DiscoveryLink-style SQL federation baseline
// (the DiscoveryLink column of Table 1).
//
// DiscoveryLink registers each source behind "nickname" tables and lets the
// user query them with SQL — which means the user must know SQL and each
// source's native table/column names ("Require knowledge of SQL", Table 1),
// and nothing reconciles values across sources ("No reconciliation of
// results"). Queries are evaluated against the sources' current contents:
// the nickname tables are re-derived from the wrappers on each query, which
// simulates DiscoveryLink shipping sub-queries to live sources.
package fedsql

import (
	"fmt"
	"strings"

	"repro/internal/baselines/relsql"
	"repro/internal/oem"
	"repro/internal/relstore"
	"repro/internal/wrapper"
)

// Federation exposes wrapped sources as SQL nickname tables:
//
//	locuslink_locus(locus_id, symbol, organism, description, position)
//	go_annotation(gene_symbol, organism, go_id, evidence)
//	go_term(go_id, name, namespace)
//	omim_entry(mim_number, title, cyto_position, inheritance)
//	omim_gene(mim_number, gene_symbol, locus)
//	protdb_protein(ac, gn, os, de)         -- when ProtDB is registered
type Federation struct {
	reg *wrapper.Registry
}

// New builds a federation over the registry.
func New(reg *wrapper.Registry) *Federation { return &Federation{reg: reg} }

// Query runs one SELECT over freshly derived nickname tables.
func (f *Federation) Query(sql string) (*relsql.ResultSet, error) {
	st, err := relsql.ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	db, err := f.buildNicknames()
	if err != nil {
		return nil, err
	}
	return relsql.Exec(db, st)
}

func (f *Federation) buildNicknames() (*relstore.DB, error) {
	db := relstore.NewDB()
	for _, w := range f.reg.All() {
		g, err := w.Model()
		if err != nil {
			return nil, err
		}
		switch w.Name() {
		case "LocusLink":
			if err := deriveLocusLink(db, g); err != nil {
				return nil, err
			}
		case "GO":
			if err := deriveGO(db, g); err != nil {
				return nil, err
			}
		case "OMIM":
			if err := deriveOMIM(db, g); err != nil {
				return nil, err
			}
		case "ProtDB":
			if err := deriveProt(db, g); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func deriveLocusLink(db *relstore.DB, g *oem.Graph) error {
	t, err := db.Create(relstore.Schema{Name: "locuslink_locus", Key: "locus_id", Columns: []relstore.Column{
		{Name: "locus_id", Type: relstore.TInt},
		{Name: "symbol", Type: relstore.TText},
		{Name: "organism", Type: relstore.TText, Nullable: true},
		{Name: "description", Type: relstore.TText, Nullable: true},
		{Name: "position", Type: relstore.TText, Nullable: true},
	}})
	if err != nil {
		return err
	}
	for _, e := range g.Children(g.Root("LocusLink"), "Locus") {
		id, _ := g.IntUnder(e, "LocusID")
		var desc any = g.StringUnder(e, "Description")
		if desc == "" {
			desc = nil
		}
		if _, err := t.InsertVals(id, g.StringUnder(e, "Symbol"), g.StringUnder(e, "Organism"), desc, g.StringUnder(e, "Position")); err != nil {
			return err
		}
	}
	return t.CreateIndex("symbol")
}

func deriveGO(db *relstore.DB, g *oem.Graph) error {
	ta, err := db.Create(relstore.Schema{Name: "go_annotation", Columns: []relstore.Column{
		{Name: "gene_symbol", Type: relstore.TText},
		{Name: "organism", Type: relstore.TText, Nullable: true},
		{Name: "go_id", Type: relstore.TText},
		{Name: "evidence", Type: relstore.TText, Nullable: true},
	}})
	if err != nil {
		return err
	}
	tt, err := db.Create(relstore.Schema{Name: "go_term", Key: "go_id", Columns: []relstore.Column{
		{Name: "go_id", Type: relstore.TText},
		{Name: "name", Type: relstore.TText},
		{Name: "namespace", Type: relstore.TText, Nullable: true},
	}})
	if err != nil {
		return err
	}
	root := g.Root("GO")
	for _, e := range g.Children(root, "Term") {
		if _, err := tt.InsertVals(g.StringUnder(e, "GoID"), g.StringUnder(e, "Name"), g.StringUnder(e, "Namespace")); err != nil {
			return err
		}
	}
	for _, e := range g.Children(root, "Annotation") {
		if _, err := ta.InsertVals(g.StringUnder(e, "GeneSymbol"), g.StringUnder(e, "Organism"), g.StringUnder(e, "GoID"), g.StringUnder(e, "Evidence")); err != nil {
			return err
		}
	}
	return ta.CreateIndex("gene_symbol")
}

func deriveOMIM(db *relstore.DB, g *oem.Graph) error {
	te, err := db.Create(relstore.Schema{Name: "omim_entry", Key: "mim_number", Columns: []relstore.Column{
		{Name: "mim_number", Type: relstore.TInt},
		{Name: "title", Type: relstore.TText},
		{Name: "cyto_position", Type: relstore.TText, Nullable: true},
		{Name: "inheritance", Type: relstore.TText, Nullable: true},
	}})
	if err != nil {
		return err
	}
	tg, err := db.Create(relstore.Schema{Name: "omim_gene", Columns: []relstore.Column{
		{Name: "mim_number", Type: relstore.TInt},
		{Name: "gene_symbol", Type: relstore.TText, Nullable: true},
		{Name: "locus", Type: relstore.TText, Nullable: true},
	}})
	if err != nil {
		return err
	}
	root := g.Root("OMIM")
	for _, e := range g.Children(root, "Entry") {
		mim, _ := g.IntUnder(e, "MimNumber")
		if _, err := te.InsertVals(mim, g.StringUnder(e, "Title"), g.StringUnder(e, "CytoPosition"), g.StringUnder(e, "Inheritance")); err != nil {
			return err
		}
		syms := stringsUnder(g, e, "GeneSymbol")
		loci := stringsUnder(g, e, "Locus")
		n := len(syms)
		if len(loci) > n {
			n = len(loci)
		}
		for i := 0; i < n; i++ {
			var sym, locus any
			if i < len(syms) {
				sym = syms[i]
			}
			if i < len(loci) {
				locus = loci[i] // raw "LL<id>" form — the user must know
			}
			if _, err := tg.InsertVals(mim, sym, locus); err != nil {
				return err
			}
		}
	}
	return tg.CreateIndex("gene_symbol")
}

func deriveProt(db *relstore.DB, g *oem.Graph) error {
	t, err := db.Create(relstore.Schema{Name: "protdb_protein", Key: "ac", Columns: []relstore.Column{
		{Name: "ac", Type: relstore.TText},
		{Name: "gn", Type: relstore.TText},
		{Name: "os", Type: relstore.TText, Nullable: true},
		{Name: "de", Type: relstore.TText, Nullable: true},
	}})
	if err != nil {
		return err
	}
	for _, e := range g.Children(g.Root("ProtDB"), "Protein") {
		if _, err := t.InsertVals(g.StringUnder(e, "AC"), g.StringUnder(e, "GN"), g.StringUnder(e, "OS"), g.StringUnder(e, "DE")); err != nil {
			return err
		}
	}
	return nil
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

// Figure5b answers the paper's Figure 5(b) question the way a DiscoveryLink
// user must. Note everything the user must already know: the nickname table
// names, that GO symbols need case folding, and that OMIM's locus column is
// a prefixed string. GO stores some symbols lowercased, so a plain SQL join
// of locuslink_locus.symbol with go_annotation.gene_symbol misses them, and
// this SQL subset cannot fold case; the anti-join needs NOT EXISTS, which it
// lacks too. So, like the user, it runs three queries and folds and
// subtracts client-side.
func (f *Federation) Figure5b() ([]string, error) {
	ann, err := f.Query(`SELECT gene_symbol FROM go_annotation`)
	if err != nil {
		return nil, err
	}
	annotated := map[string]bool{}
	for _, r := range ann.Rows {
		annotated[strings.ToUpper(r[0].S)] = true
	}
	dis, err := f.Query(`SELECT locus FROM omim_gene WHERE locus IS NOT NULL`)
	if err != nil {
		return nil, err
	}
	diseased := map[string]bool{}
	for _, r := range dis.Rows {
		diseased[r[0].S] = true // "LL<id>" strings
	}
	loci, err := f.Query(`SELECT symbol, locus_id FROM locuslink_locus ORDER BY symbol`)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range loci.Rows {
		sym := r[0].S
		key := fmt.Sprintf("LL%d", r[1].I)
		if annotated[strings.ToUpper(sym)] && !diseased[key] {
			out = append(out, sym)
		}
	}
	return out, nil
}
