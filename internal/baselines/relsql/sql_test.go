package relsql

import (
	"strings"
	"testing"

	"repro/internal/relstore"
)

// mustTable creates a table in db and inserts rows into it.
func mustTable(t *testing.T, db *relstore.DB, s relstore.Schema, rows ...[]any) *relstore.Table {
	t.Helper()
	tab, err := db.Create(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := tab.InsertVals(r...); err != nil {
			t.Fatalf("%s %v: %v", s.Name, r, err)
		}
	}
	return tab
}

func setupSQL(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	mustTable(t, db, relstore.Schema{Name: "gene", Key: "locus_id", Columns: []relstore.Column{
		{Name: "locus_id", Type: relstore.TInt},
		{Name: "symbol", Type: relstore.TText},
		{Name: "organism", Type: relstore.TText, Nullable: true},
	}}, []any{1, "FOSB", "Homo sapiens"}, []any{2, "JUNB", "Homo sapiens"}, []any{3, "Tp53", "Mus musculus"}, []any{4, "BRCA1", nil})
	assoc := mustTable(t, db, relstore.Schema{Name: "assoc", Columns: []relstore.Column{
		{Name: "locus_id", Type: relstore.TInt},
		{Name: "go_id", Type: relstore.TText},
		{Name: "evidence", Type: relstore.TText, Nullable: true},
	}}, []any{1, "GO:0003700", "IEA"}, []any{1, "GO:0005515", "IDA"}, []any{2, "GO:0003700", "ISS"}, []any{3, "GO:0006915", "IDA"})
	if err := assoc.CreateIndex("locus_id"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSQLSelectBasic(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, `SELECT symbol FROM gene WHERE organism = 'Homo sapiens' ORDER BY symbol`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "FOSB" || rs.Rows[1][0].S != "JUNB" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSQLSelectStar(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, `SELECT * FROM gene WHERE locus_id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cols) != 3 || len(rs.Rows) != 1 || rs.Rows[0][1].S != "Tp53" {
		t.Fatalf("rs = %+v", rs)
	}
}

func TestSQLJoin(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, `SELECT g.symbol, a.go_id FROM gene g JOIN assoc a ON g.locus_id = a.locus_id WHERE a.evidence = 'IDA' ORDER BY g.symbol`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0].S != "FOSB" || rs.Rows[0][1].S != "GO:0005515" {
		t.Errorf("row0 = %v", rs.Rows[0])
	}
	if rs.Rows[1][0].S != "Tp53" {
		t.Errorf("row1 = %v", rs.Rows[1])
	}
}

func TestSQLImplicitJoinCommaSyntax(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, `SELECT g.symbol FROM gene g, assoc a WHERE g.locus_id = a.locus_id AND a.go_id = 'GO:0003700' ORDER BY g.symbol`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "FOSB" || rs.Rows[1][0].S != "JUNB" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSQLDistinctLimitDesc(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, `SELECT DISTINCT a.go_id FROM assoc a ORDER BY a.go_id DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "GO:0006915" || rs.Rows[1][0].S != "GO:0005515" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSQLPredicates(t *testing.T) {
	db := setupSQL(t)
	cases := []struct {
		q    string
		want int
	}{
		{`SELECT symbol FROM gene WHERE organism IS NULL`, 1},
		{`SELECT symbol FROM gene WHERE organism IS NOT NULL`, 3},
		{`SELECT symbol FROM gene WHERE symbol LIKE '%b'`, 2},     // FOSB, JUNB case-insensitive
		{`SELECT symbol FROM gene WHERE symbol NOT LIKE '%b'`, 2}, // Tp53, BRCA1
		{`SELECT symbol FROM gene WHERE locus_id IN (1, 3)`, 2},
		{`SELECT symbol FROM gene WHERE locus_id NOT IN (1, 3)`, 2},
		{`SELECT symbol FROM gene WHERE locus_id > 1 AND locus_id <= 3`, 2},
		{`SELECT symbol FROM gene WHERE locus_id = 1 OR symbol = 'Tp53'`, 2},
		{`SELECT symbol FROM gene WHERE NOT (locus_id = 1)`, 3},
		{`SELECT symbol FROM gene WHERE locus_id <> 1`, 3},
		{`SELECT symbol FROM gene WHERE locus_id = '2'`, 1}, // text->int coercion
	}
	for _, c := range cases {
		rs, err := Run(db, c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		if len(rs.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.q, len(rs.Rows), c.want)
		}
	}
}

func TestSQLErrors(t *testing.T) {
	db := setupSQL(t)
	bad := []string{
		`SELECT`,
		`SELECT * FROM nosuch`,
		`SELECT nosuchcol FROM gene`,
		`SELECT symbol FROM gene WHERE`,
		`SELECT symbol FROM gene WHERE symbol LIKE 5`,
		`FROB the table`,
		`SELECT symbol FROM gene LIMIT -1`,
		`SELECT 'unterminated FROM gene`,
		`SELECT symbol FROM gene; DELETE FROM gene`,
		`SELECT symbol FROM gene WHERE locus_id`,   // dangling operand
		`SELECT g.symbol FROM gene g JOIN assoc a`, // missing ON
	}
	for _, q := range bad {
		if _, err := Run(db, q); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

func TestSQLSelectAlias(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, `SELECT symbol AS s FROM gene WHERE locus_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cols[0] != "s" {
		t.Errorf("alias not applied: %v", rs.Cols)
	}
}

func TestSQLCommentsAndWhitespace(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, "SELECT symbol -- trailing comment\nFROM gene\nWHERE locus_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSQLStringEscapes(t *testing.T) {
	db := relstore.NewDB()
	mustTable(t, db, relstore.Schema{Name: "t", Columns: []relstore.Column{
		{Name: "s", Type: relstore.TText, Nullable: true},
	}}, []any{"it's"})
	rs, err := Run(db, `SELECT s FROM t WHERE s = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].S != "it's" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSQLIndexedJoinMatchesScanJoin(t *testing.T) {
	// The same join with and without an index must agree; this guards the
	// index-access path in the executor.
	mk := func(withIndex bool) *ResultSet {
		db := relstore.NewDB()
		ta := mustTable(t, db, relstore.Schema{Name: "a", Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "v", Type: relstore.TText},
		}})
		tb := mustTable(t, db, relstore.Schema{Name: "b", Columns: []relstore.Column{
			{Name: "aid", Type: relstore.TInt},
			{Name: "w", Type: relstore.TText},
		}})
		if withIndex {
			if err := tb.CreateIndex("aid"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 30; i++ {
			if _, err := ta.InsertVals(i, "v"+string(rune('a'+i%7))); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.InsertVals(i%10, "w"+string(rune('a'+i%3))); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := Run(db, `SELECT a.id, a.v, b.w FROM a JOIN b ON a.id = b.aid ORDER BY a.id, b.w`)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	with, without := mk(true), mk(false)
	if len(with.Rows) != len(without.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(with.Rows), len(without.Rows))
	}
	for i := range with.Rows {
		if rowKey(with.Rows[i]) != rowKey(without.Rows[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, with.Rows[i], without.Rows[i])
		}
	}
}

func TestResultSetFormat(t *testing.T) {
	db := setupSQL(t)
	rs, err := Run(db, `SELECT symbol, organism FROM gene ORDER BY locus_id LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	out := rs.Format()
	if !strings.Contains(out, "FOSB") || !strings.Contains(out, "symbol") || !strings.Contains(out, "---") {
		t.Errorf("format output:\n%s", out)
	}
}

// TestRowKeyNoCollision: the DISTINCT dedup key must be injective over
// rows. The old separator-based key let a single cell containing "\x00" and
// a forged "type:" prefix collide with two separate cells.
func TestRowKeyNoCollision(t *testing.T) {
	pairs := [][2]relstore.Row{
		// Same arity, cell boundary forged inside a value: both encoded to
		// "text:a\x00text:b\x00text:c\x00" under the old key.
		{{relstore.Text("a\x00text:b"), relstore.Text("c")}, {relstore.Text("a"), relstore.Text("b\x00text:c")}},
		// Different arity, one cell swallowing its neighbour's encoding.
		{{relstore.Text("a\x00text:b")}, {relstore.Text("a"), relstore.Text("b")}},
		// Separator shifted across the cell boundary.
		{{relstore.Text("a\x00"), relstore.Text("b")}, {relstore.Text("a"), relstore.Text("\x00b")}},
		// NULL vs empty text must stay distinct too.
		{{relstore.Null}, {relstore.Text("")}},
	}
	for i, p := range pairs {
		ka, kb := rowKey(p[0]), rowKey(p[1])
		if ka == kb {
			t.Errorf("pair %d: distinct rows share key %q", i, ka)
		}
	}
	// Equal rows must keep equal keys (dedup still works).
	if rowKey(relstore.Row{relstore.Text("x"), relstore.Int(7)}) != rowKey(relstore.Row{relstore.Text("x"), relstore.Int(7)}) {
		t.Error("equal rows produced different keys")
	}
}

// TestDistinctKeepsCollidingRows: end-to-end DISTINCT over rows engineered
// to collide under the old key — both must survive.
func TestDistinctKeepsCollidingRows(t *testing.T) {
	db := relstore.NewDB()
	tab, err := db.Create(relstore.Schema{
		Name: "t",
		Key:  "id",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "a", Type: relstore.TText},
			{Name: "b", Type: relstore.TText},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InsertVals(1, "a\x00text:b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InsertVals(2, "a", "b\x00text:c"); err != nil {
		t.Fatal(err)
	}
	rs, err := Exec(db, &SelectStmt{
		Items: []SelectItem{
			{Expr: &Col{Name: "a"}},
			{Expr: &Col{Name: "b"}},
		},
		From:     []TableRef{{Table: "t"}},
		Limit:    -1,
		Distinct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("DISTINCT collapsed %d distinct rows into %d", 2, len(rs.Rows))
	}
}
