package relstore

import (
	"strings"
	"testing"
)

func setupSQL(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	stmts := []string{
		`CREATE TABLE gene (locus_id INT PRIMARY KEY, symbol TEXT NOT NULL, organism TEXT)`,
		`CREATE TABLE assoc (locus_id INT NOT NULL, go_id TEXT NOT NULL, evidence TEXT)`,
		`CREATE INDEX ON assoc (locus_id)`,
		`INSERT INTO gene VALUES (1, 'FOSB', 'Homo sapiens'), (2, 'JUNB', 'Homo sapiens'), (3, 'Tp53', 'Mus musculus'), (4, 'BRCA1', NULL)`,
		`INSERT INTO assoc VALUES (1, 'GO:0003700', 'IEA'), (1, 'GO:0005515', 'IDA'), (2, 'GO:0003700', 'ISS'), (3, 'GO:0006915', 'IDA')`,
	}
	for _, s := range stmts {
		if _, err := db.Run(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func TestSQLSelectBasic(t *testing.T) {
	db := setupSQL(t)
	rs, err := db.Run(`SELECT symbol FROM gene WHERE organism = 'Homo sapiens' ORDER BY symbol`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "FOSB" || rs.Rows[1][0].S != "JUNB" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSQLSelectStar(t *testing.T) {
	db := setupSQL(t)
	rs, err := db.Run(`SELECT * FROM gene WHERE locus_id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cols) != 3 || len(rs.Rows) != 1 || rs.Rows[0][1].S != "Tp53" {
		t.Fatalf("rs = %+v", rs)
	}
}

func TestSQLJoin(t *testing.T) {
	db := setupSQL(t)
	rs, err := db.Run(`SELECT g.symbol, a.go_id FROM gene g JOIN assoc a ON g.locus_id = a.locus_id WHERE a.evidence = 'IDA' ORDER BY g.symbol`)
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
	rs, err := db.Run(`SELECT g.symbol FROM gene g, assoc a WHERE g.locus_id = a.locus_id AND a.go_id = 'GO:0003700' ORDER BY g.symbol`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].S != "FOSB" || rs.Rows[1][0].S != "JUNB" {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestSQLDistinctLimitDesc(t *testing.T) {
	db := setupSQL(t)
	rs, err := db.Run(`SELECT DISTINCT a.go_id FROM assoc a ORDER BY a.go_id DESC LIMIT 2`)
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
		rs, err := db.Run(c.q)
		if err != nil {
			t.Errorf("%s: %v", c.q, err)
			continue
		}
		if len(rs.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.q, len(rs.Rows), c.want)
		}
	}
}

func TestSQLDelete(t *testing.T) {
	db := setupSQL(t)
	if _, err := db.Run(`DELETE FROM assoc WHERE evidence = 'IEA'`); err != nil {
		t.Fatal(err)
	}
	if n := len(db.Table("assoc").rows); n != 3 {
		t.Errorf("after delete, %d rows", n)
	}
	if _, err := db.Run(`DELETE FROM assoc`); err != nil {
		t.Fatal(err)
	}
	if n := len(db.Table("assoc").rows); n != 0 {
		t.Errorf("after delete all, %d rows", n)
	}
}

func TestSQLErrors(t *testing.T) {
	db := setupSQL(t)
	bad := []string{
		`SELECT`,
		`SELECT * FROM nosuch`,
		`SELECT nosuchcol FROM gene`,
		`SELECT symbol FROM gene WHERE`,
		`INSERT INTO nosuch VALUES (1)`,
		`INSERT INTO gene VALUES (1, 'DUP', NULL)`, // duplicate key
		`CREATE TABLE gene (x INT)`,                // already exists
		`SELECT symbol FROM gene WHERE symbol LIKE 5`,
		`FROB the table`,
		`SELECT symbol FROM gene LIMIT -1`,
		`SELECT 'unterminated FROM gene`,
		`DELETE FROM nosuch`,
		`SELECT symbol FROM gene WHERE locus_id`,   // dangling operand
		`SELECT g.symbol FROM gene g JOIN assoc a`, // missing ON
	}
	for _, q := range bad {
		if _, err := db.Run(q); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

func TestSQLSelectAlias(t *testing.T) {
	db := setupSQL(t)
	rs, err := db.Run(`SELECT symbol AS s FROM gene WHERE locus_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cols[0] != "s" {
		t.Errorf("alias not applied: %v", rs.Cols)
	}
}

func TestSQLCommentsAndWhitespace(t *testing.T) {
	db := setupSQL(t)
	rs, err := db.Run("SELECT symbol -- trailing comment\nFROM gene\nWHERE locus_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestSQLStringEscapes(t *testing.T) {
	db := NewDB()
	if _, err := db.Run(`CREATE TABLE t (s TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(`INSERT INTO t VALUES ('it''s')`); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Run(`SELECT s FROM t WHERE s = 'it''s'`)
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
		db := NewDB()
		must := func(q string) {
			if _, err := db.Run(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		must(`CREATE TABLE a (id INT PRIMARY KEY, v TEXT NOT NULL)`)
		must(`CREATE TABLE b (aid INT NOT NULL, w TEXT NOT NULL)`)
		if withIndex {
			must(`CREATE INDEX ON b (aid)`)
		}
		for i := 0; i < 30; i++ {
			ta := db.Table("a")
			tb := db.Table("b")
			if _, err := ta.InsertVals(i, "v"+string(rune('a'+i%7))); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.InsertVals(i%10, "w"+string(rune('a'+i%3))); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := db.Run(`SELECT a.id, a.v, b.w FROM a JOIN b ON a.id = b.aid ORDER BY a.id, b.w`)
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
	rs, err := db.Run(`SELECT symbol, organism FROM gene ORDER BY locus_id LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	out := rs.Format()
	if !strings.Contains(out, "FOSB") || !strings.Contains(out, "symbol") || !strings.Contains(out, "---") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestMapEnvLookup(t *testing.T) {
	env := MapEnv{"g.symbol": Text("FOSB"), "a.go_id": Text("GO:1")}
	if v, err := env.Lookup("g", "symbol"); err != nil || v.S != "FOSB" {
		t.Errorf("qualified lookup: %v, %v", v, err)
	}
	if v, err := env.Lookup("", "go_id"); err != nil || v.S != "GO:1" {
		t.Errorf("suffix lookup: %v, %v", v, err)
	}
	if _, err := env.Lookup("", "nosuch"); err == nil {
		t.Error("missing column should error")
	}
	env["b.symbol"] = Text("X")
	if _, err := env.Lookup("", "symbol"); err == nil {
		t.Error("ambiguous column should error")
	}
}
