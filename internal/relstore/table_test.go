package relstore

import (
	"strings"
	"testing"
)

func geneSchema() Schema {
	return Schema{
		Name: "gene",
		Key:  "locus_id",
		Columns: []Column{
			{Name: "locus_id", Type: TInt},
			{Name: "symbol", Type: TText},
			{Name: "organism", Type: TText, Nullable: true},
			{Name: "weight", Type: TFloat, Nullable: true},
			{Name: "coding", Type: TBool, Nullable: true},
		},
	}
}

func mustTable(t *testing.T) *Table {
	t.Helper()
	db := NewDB()
	tab, err := db.Create(geneSchema())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSchemaValidate(t *testing.T) {
	bad := []Schema{
		{},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "", Type: TInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "A", Type: TText}}},
		{Name: "t", Columns: []Column{{Name: "a"}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: "b"},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: expected invalid", i)
		}
	}
	good := geneSchema()
	if err := good.Validate(); err != nil {
		t.Errorf("good schema rejected: %v", err)
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	tab := mustTable(t)
	rid, err := tab.InsertVals(2354, "FOSB", "Homo sapiens", 1.5, true)
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Get(rid)
	if row == nil || row[1].S != "FOSB" {
		t.Fatalf("Get = %v", row)
	}
	// Coercion on insert: string "99" into int column.
	rid2, err := tab.InsertVals("99", "JUNB", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := tab.Get(rid2); r[0].Type != TInt || r[0].I != 99 {
		t.Fatalf("coerced key = %v", r[0])
	}
	// Duplicate key rejected.
	if _, err := tab.InsertVals(2354, "DUP", nil, nil, nil); err == nil {
		t.Error("duplicate key accepted")
	}
	// Key lookup.
	krid, krow := tab.GetByKey(Int(2354))
	if krid != rid || krow[1].S != "FOSB" {
		t.Fatalf("GetByKey = %d, %v", krid, krow)
	}
	// GetByKey coerces.
	if krid, _ := tab.GetByKey(Text("2354")); krid != rid {
		t.Error("GetByKey should coerce text key")
	}
	// Update.
	if err := tab.Update(rid, Row{Int(2354), Text("FOSB2"), Null, Null, Null}); err != nil {
		t.Fatal(err)
	}
	if r := tab.Get(rid); r[1].S != "FOSB2" {
		t.Error("update did not apply")
	}
	// Update changing key to a duplicate fails.
	if err := tab.Update(rid, Row{Int(99), Text("X"), Null, Null, Null}); err == nil {
		t.Error("update to duplicate key accepted")
	}
	// Delete.
	if !tab.Delete(rid) {
		t.Error("delete failed")
	}
	if tab.Delete(rid) {
		t.Error("double delete succeeded")
	}
	if len(tab.rows) != 1 {
		t.Errorf("Len = %d", len(tab.rows))
	}
	if _, r := tab.GetByKey(Int(2354)); r != nil {
		t.Error("deleted key still resolvable")
	}
}

func TestNullability(t *testing.T) {
	tab := mustTable(t)
	if _, err := tab.InsertVals(1, nil, nil, nil, nil); err == nil {
		t.Error("NULL in non-nullable symbol accepted")
	}
	if _, err := tab.InsertVals(nil, "X", nil, nil, nil); err == nil {
		t.Error("NULL primary key accepted")
	}
	if _, err := tab.InsertVals(1, "X", nil, nil, nil); err != nil {
		t.Errorf("nullable columns rejected: %v", err)
	}
}

func TestArityAndCoercionErrors(t *testing.T) {
	tab := mustTable(t)
	if _, err := tab.InsertVals(1, "X"); err == nil {
		t.Error("short row accepted")
	}
	if _, err := tab.InsertVals("notanint", "X", nil, nil, nil); err == nil {
		t.Error("uncoercible key accepted")
	}
}

func TestSecondaryIndex(t *testing.T) {
	tab := mustTable(t)
	for i := 0; i < 100; i++ {
		sym := "S" + string(rune('A'+i%5))
		if _, err := tab.InsertVals(i, sym, "human", float64(i), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.CreateIndex("symbol"); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex("SYMBOL") {
		t.Error("HasIndex is case-sensitive")
	}
	rids, ok := tab.IndexLookup("symbol", Text("SB"))
	if !ok || len(rids) != 20 {
		t.Fatalf("IndexLookup = %d rids, ok=%v", len(rids), ok)
	}
	// Index stays consistent across update and delete.
	if err := tab.Update(rids[0], Row{Int(1000), Text("ZZ"), Null, Null, Null}); err != nil {
		t.Fatal(err)
	}
	rids2, _ := tab.IndexLookup("symbol", Text("SB"))
	if len(rids2) != 19 {
		t.Errorf("after update, SB count = %d", len(rids2))
	}
	zz, _ := tab.IndexLookup("symbol", Text("ZZ"))
	if len(zz) != 1 {
		t.Errorf("ZZ count = %d", len(zz))
	}
	tab.Delete(zz[0])
	zz, _ = tab.IndexLookup("symbol", Text("ZZ"))
	if len(zz) != 0 {
		t.Errorf("after delete, ZZ count = %d", len(zz))
	}
	// Missing index reported.
	if _, ok := tab.IndexLookup("organism", Text("human")); ok {
		t.Error("IndexLookup on unindexed column claimed ok")
	}
	if err := tab.CreateIndex("nosuch"); err == nil {
		t.Error("CreateIndex on missing column accepted")
	}
}

func TestScanOrderAndCompaction(t *testing.T) {
	tab := mustTable(t)
	for i := 0; i < 200; i++ {
		if _, err := tab.InsertVals(i, "S", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Delete most rows to trigger compaction.
	for i := 0; i < 150; i++ {
		rid, _ := tab.GetByKey(Int(int64(i)))
		if !tab.Delete(rid) {
			t.Fatal("delete failed")
		}
	}
	var keys []int64
	tab.Scan(func(_ RowID, r Row) bool {
		keys = append(keys, r[0].I)
		return true
	})
	if len(keys) != 50 {
		t.Fatalf("scan found %d rows", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("scan order not insertion order")
		}
	}
}

func TestDBCreateDropNames(t *testing.T) {
	db := NewDB()
	if _, err := db.Create(geneSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create(geneSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if db.Table("GENE") == nil {
		t.Error("table lookup should be case-insensitive")
	}
	if got := db.Names(); len(got) != 1 || got[0] != "gene" {
		t.Errorf("Names = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := mustTable(t)
	_, _ = tab.InsertVals(1, "A", "human", 2.5, true)
	_, _ = tab.InsertVals(2, "B", nil, nil, nil)
	_, _ = tab.InsertVals(3, "C,with,commas", "with \"quotes\"", -1.0, false)
	var sb strings.Builder
	if err := tab.DumpCSV(&sb); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	tab2, err := db2.LoadCSV("gene", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("LoadCSV: %v\ncsv:\n%s", err, sb.String())
	}
	if len(tab2.rows) != 3 {
		t.Fatalf("restored %d rows", len(tab2.rows))
	}
	_, r := tab2.GetByKey(Int(2))
	if r == nil || !r[2].IsNull() || !r[3].IsNull() {
		t.Errorf("NULLs not preserved: %v", r)
	}
	_, r = tab2.GetByKey(Int(3))
	if r[1].S != "C,with,commas" || r[2].S != `with "quotes"` {
		t.Errorf("quoting broken: %v", r)
	}
	s2 := tab2.Schema()
	if s2.Key != "locus_id" {
		t.Errorf("key not preserved: %q", s2.Key)
	}
}

func TestValueCoerce(t *testing.T) {
	cases := []struct {
		in   Value
		to   ColType
		want Value
		ok   bool
	}{
		{Int(5), TFloat, Float(5), true},
		{Float(5.9), TInt, Int(5), true},
		{Text("42"), TInt, Int(42), true},
		{Text("4.5"), TFloat, Float(4.5), true},
		{Text("x"), TInt, Null, false},
		{Bool(true), TInt, Int(1), true},
		{Int(0), TBool, Bool(false), true},
		{Text("true"), TBool, Bool(true), true},
		{Text("yes"), TBool, Null, false},
		{Float(1.5), TText, Text("1.5"), true},
		{Null, TInt, Null, true},
		{Bool(true), TFloat, Null, false},
	}
	for i, c := range cases {
		got, err := Coerce(c.in, c.to)
		if (err == nil) != c.ok {
			t.Errorf("case %d: err = %v, ok want %v", i, err, c.ok)
			continue
		}
		if c.ok && Compare(got, c.want) != 0 {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{Null, Int(-3), Int(0), Float(0.5), Int(1), Float(1), Text("a"), Text("b"), Bool(false), Bool(true)}
	for i := range vals {
		for j := range vals {
			cij := Compare(vals[i], vals[j])
			cji := Compare(vals[j], vals[i])
			if cij != -cji {
				t.Errorf("antisymmetry broken between %v and %v", vals[i], vals[j])
			}
			if i == j && cij != 0 {
				t.Errorf("reflexivity broken for %v", vals[i])
			}
		}
	}
}

// TestRowKeyNoCollision: the DISTINCT dedup key must be injective over
// rows. The old separator-based key let a single cell containing "\x00" and
// a forged "type:" prefix collide with two separate cells.
func TestRowKeyNoCollision(t *testing.T) {
	pairs := [][2]Row{
		// Same arity, cell boundary forged inside a value: both encoded to
		// "text:a\x00text:b\x00text:c\x00" under the old key.
		{{Text("a\x00text:b"), Text("c")}, {Text("a"), Text("b\x00text:c")}},
		// Different arity, one cell swallowing its neighbour's encoding.
		{{Text("a\x00text:b")}, {Text("a"), Text("b")}},
		// Separator shifted across the cell boundary.
		{{Text("a\x00"), Text("b")}, {Text("a"), Text("\x00b")}},
		// NULL vs empty text must stay distinct too.
		{{Null}, {Text("")}},
	}
	for i, p := range pairs {
		ka, kb := rowKey(p[0]), rowKey(p[1])
		if ka == kb {
			t.Errorf("pair %d: distinct rows share key %q", i, ka)
		}
	}
	// Equal rows must keep equal keys (dedup still works).
	if rowKey(Row{Text("x"), Int(7)}) != rowKey(Row{Text("x"), Int(7)}) {
		t.Error("equal rows produced different keys")
	}
}

// TestDistinctKeepsCollidingRows: end-to-end DISTINCT over rows engineered
// to collide under the old key — both must survive.
func TestDistinctKeepsCollidingRows(t *testing.T) {
	db := NewDB()
	tab, err := db.Create(Schema{
		Name: "t",
		Key:  "id",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "a", Type: TText},
			{Name: "b", Type: TText},
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
	rs, err := db.Exec(&SelectStmt{
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
