// Package warehouse implements the GUS-style data-warehousing baseline
// (related-works approach 2, and the GUS column of Table 1).
//
// "The data from a set of heterogeneous databases are exported into a
// single database... Translators transform this exported data into the
// format and conceptualisation of the warehouse." Here the translators are
// the same wrappers + mapping rules ANNODA uses; the difference is
// architectural: ETL materializes everything into relational tables, data
// is reconciled and cleansed AT LOAD TIME, queries are fast local SQL, the
// warehouse supports archival snapshots (GUS's distinguishing Table 1
// row) — and it goes stale the moment a source changes, until Refresh.
package warehouse

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/baselines/relsql"
	"repro/internal/gml"
	"repro/internal/oem"
	"repro/internal/relstore"
	"repro/internal/wrapper"
)

// Warehouse is a loaded warehouse instance.
type Warehouse struct {
	mu       sync.RWMutex
	reg      *wrapper.Registry
	gl       *gml.Global
	db       *relstore.DB
	archives map[string]map[string][]byte // tag -> table -> csv snapshot
}

// New creates an empty warehouse over the registry; call Refresh to load.
func New(reg *wrapper.Registry, gl *gml.Global) *Warehouse {
	return &Warehouse{reg: reg, gl: gl, archives: map[string]map[string][]byte{}}
}

// Refresh runs the full extract-transform-load pipeline: every mapped
// source is wrapped, translated through the mapping rules, reconciled
// (conflicting gene attributes resolved in favour of the primary source),
// and loaded into fresh relational tables.
func (w *Warehouse) Refresh() error {
	db := relstore.NewDB()
	for _, s := range schema {
		if _, err := db.Create(s); err != nil {
			return err
		}
	}
	type geneRow struct {
		id       int64
		symbol   string
		organism string
		desc     string
		pos      string
		source   string
	}
	genes := map[string]*geneRow{} // canonical symbol -> row
	symToID := map[string]int64{}

	for _, wr := range w.reg.All() {
		mp := w.gl.MappingFor(wr.Name())
		if mp == nil {
			continue
		}
		g, err := wr.Model()
		if err != nil {
			return err
		}
		scratch := oem.NewGraph()
		root := g.Root(wr.Name())
		for _, e := range g.Children(root, mp.Entity) {
			te, err := gml.TranslateEntity(scratch, g, e, mp)
			if err != nil {
				return err
			}
			switch mp.Concept {
			case "Gene":
				id, _ := scratch.IntUnder(te, "GeneID")
				sym := scratch.StringUnder(te, "Symbol")
				key := gml.CanonicalSymbol(sym)
				// Reconcile-at-load: first (primary) source wins.
				if _, dup := genes[key]; !dup {
					genes[key] = &geneRow{
						id: id, symbol: sym, source: wr.Name(),
						organism: scratch.StringUnder(te, "Organism"),
						desc:     scratch.StringUnder(te, "Description"),
						pos:      scratch.StringUnder(te, "Position"),
					}
					symToID[key] = id
				}
			case "Annotation":
				if _, err := db.Table("annotation").InsertVals(
					gml.CanonicalSymbol(scratch.StringUnder(te, "Symbol")),
					scratch.StringUnder(te, "GoID"),
					scratch.StringUnder(te, "Evidence"),
					scratch.StringUnder(te, "Organism"),
				); err != nil {
					return err
				}
			case "Disease":
				mim, _ := scratch.IntUnder(te, "MimNumber")
				if _, err := db.Table("disease").InsertVals(
					mim,
					scratch.StringUnder(te, "Title"),
					scratch.StringUnder(te, "Position"),
					scratch.StringUnder(te, "Inheritance"),
				); err != nil {
					return err
				}
				for _, t := range scratch.Children(te, "GeneID") {
					o := scratch.Get(t)
					if o != nil && o.Kind == oem.KindInt {
						if _, err := db.Table("disease_gene").InsertVals(mim, o.Int); err != nil {
							return err
						}
					}
				}
			case "Protein":
				gid, _ := scratch.IntUnder(te, "GeneID")
				if _, err := db.Table("protein").InsertVals(
					scratch.StringUnder(te, "Accession"),
					gml.CanonicalSymbol(scratch.StringUnder(te, "Symbol")),
					gid,
					scratch.StringUnder(te, "Description"),
				); err != nil {
					return err
				}
			}
		}
	}
	keys := make([]string, 0, len(genes))
	for k := range genes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := genes[k]
		var desc any = r.desc
		if r.desc == "" {
			desc = nil
		}
		if _, err := db.Table("gene").InsertVals(r.id, r.symbol, r.organism, desc, r.pos, r.source); err != nil {
			return err
		}
	}
	for _, idx := range []struct{ table, col string }{
		{"gene", "symbol"}, {"annotation", "symbol"}, {"annotation", "go_id"},
		{"disease_gene", "gene_id"}, {"disease_gene", "mim"}, {"protein", "gene_id"},
	} {
		if err := db.Table(idx.table).CreateIndex(idx.col); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.db = db
	w.mu.Unlock()
	return nil
}

// schema declares the warehouse tables. A PRIMARY KEY column is not
// nullable.
var schema = []relstore.Schema{
	{Name: "gene", Key: "gene_id", Columns: []relstore.Column{
		{Name: "gene_id", Type: relstore.TInt},
		{Name: "symbol", Type: relstore.TText},
		{Name: "organism", Type: relstore.TText},
		{Name: "description", Type: relstore.TText, Nullable: true},
		{Name: "position", Type: relstore.TText, Nullable: true},
		{Name: "src", Type: relstore.TText},
	}},
	{Name: "annotation", Columns: []relstore.Column{
		{Name: "symbol", Type: relstore.TText},
		{Name: "go_id", Type: relstore.TText},
		{Name: "evidence", Type: relstore.TText, Nullable: true},
		{Name: "organism", Type: relstore.TText, Nullable: true},
	}},
	{Name: "disease", Key: "mim", Columns: []relstore.Column{
		{Name: "mim", Type: relstore.TInt},
		{Name: "title", Type: relstore.TText},
		{Name: "position", Type: relstore.TText, Nullable: true},
		{Name: "inheritance", Type: relstore.TText, Nullable: true},
	}},
	{Name: "disease_gene", Columns: []relstore.Column{
		{Name: "mim", Type: relstore.TInt},
		{Name: "gene_id", Type: relstore.TInt},
	}},
	{Name: "protein", Key: "accession", Columns: []relstore.Column{
		{Name: "accession", Type: relstore.TText},
		{Name: "symbol", Type: relstore.TText},
		{Name: "gene_id", Type: relstore.TInt, Nullable: true},
		{Name: "description", Type: relstore.TText, Nullable: true},
	}},
}

// Query runs a SELECT against the warehouse. Requires a prior Refresh.
func (w *Warehouse) Query(sql string) (*relsql.ResultSet, error) {
	w.mu.RLock()
	db := w.db
	w.mu.RUnlock()
	if db == nil {
		return nil, fmt.Errorf("warehouse: not loaded; call Refresh")
	}
	return relsql.Run(db, sql)
}

// Figure5b answers the paper's Figure 5(b) question with warehouse SQL:
// gene symbols annotated in GO but absent from disease_gene.
func (w *Warehouse) Figure5b() ([]string, error) {
	rs, err := w.Query(`SELECT g.symbol, g.gene_id FROM gene g JOIN annotation a ON g.symbol = a.symbol ORDER BY g.symbol`)
	if err != nil {
		return nil, err
	}
	// Anti-join computed client-side (the SQL subset has no NOT EXISTS):
	// gather disease gene ids, subtract.
	dg, err := w.Query(`SELECT gene_id FROM disease_gene`)
	if err != nil {
		return nil, err
	}
	sick := map[int64]bool{}
	for _, r := range dg.Rows {
		sick[r[0].I] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range rs.Rows {
		sym, id := r[0].S, r[1].I
		if sick[id] || seen[sym] {
			continue
		}
		seen[sym] = true
		out = append(out, sym)
	}
	return out, nil
}

// Archive snapshots every table under a tag (GUS's "archiving of data
// supported").
func (w *Warehouse) Archive(tag string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.db == nil {
		return fmt.Errorf("warehouse: not loaded")
	}
	snap := map[string][]byte{}
	for _, name := range w.db.Names() {
		var buf bytes.Buffer
		if err := dumpCSV(w.db.Table(name), &buf); err != nil {
			return err
		}
		snap[name] = buf.Bytes()
	}
	w.archives[tag] = snap
	return nil
}

// Restore replaces the live tables with an archived snapshot.
func (w *Warehouse) Restore(tag string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	snap, ok := w.archives[tag]
	if !ok {
		return fmt.Errorf("warehouse: no archive %q", tag)
	}
	db := relstore.NewDB()
	for name, csv := range snap {
		if _, err := loadCSV(db, name, bytes.NewReader(csv)); err != nil {
			return err
		}
	}
	w.db = db
	return nil
}
