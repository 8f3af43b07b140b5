package relstore

import (
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

func TestInsertGetUpdate(t *testing.T) {
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
	// Update changing the key moves the key index.
	if err := tab.Update(rid, Row{Int(2355), Text("FOSB2"), Null, Null, Null}); err != nil {
		t.Fatal(err)
	}
	if _, r := tab.GetByKey(Int(2354)); r != nil {
		t.Error("old key still resolvable")
	}
	if krid, _ := tab.GetByKey(Int(2355)); krid != rid {
		t.Error("new key does not resolve")
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
	// Index stays consistent across update.
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
	// Missing index reported.
	if _, ok := tab.IndexLookup("organism", Text("human")); ok {
		t.Error("IndexLookup on unindexed column claimed ok")
	}
	if err := tab.CreateIndex("nosuch"); err == nil {
		t.Error("CreateIndex on missing column accepted")
	}
}

func TestScanOrder(t *testing.T) {
	tab := mustTable(t)
	for i := 0; i < 200; i++ {
		if _, err := tab.InsertVals(i, "S", nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// An update keeps the row's place even when it changes the key.
	rid, _ := tab.GetByKey(Int(0))
	if err := tab.Update(rid, Row{Int(1000), Text("S"), Null, Null, Null}); err != nil {
		t.Fatal(err)
	}
	var keys []int64
	tab.Scan(func(_ RowID, r Row) bool {
		keys = append(keys, r[0].I)
		return len(keys) < 50
	})
	if len(keys) != 50 {
		t.Fatalf("scan stopped after %d rows, want 50", len(keys))
	}
	if keys[0] != 1000 {
		t.Fatalf("first row key = %d, want the updated 1000", keys[0])
	}
	for i := 2; i < len(keys); i++ {
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
