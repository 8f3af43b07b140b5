package relstore

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeInsertLookup(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 1000; i++ {
		bt.Insert(Int(int64(i%100)), RowID(i+1))
	}
	if n := len(entries(bt)); n != 1000 {
		t.Fatalf("%d entries", n)
	}
	rids := bt.Lookup(Int(7))
	if len(rids) != 10 {
		t.Fatalf("Lookup(7) returned %d rids", len(rids))
	}
	for i := 1; i < len(rids); i++ {
		if rids[i-1] >= rids[i] {
			t.Fatal("rids not ascending")
		}
	}
	if _, err := bt.root.check(true); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Duplicate (key,rid) insert is a no-op.
	bt.Insert(Int(7), rids[0])
	if n := len(entries(bt)); n != 1000 {
		t.Errorf("duplicate insert changed size to %d", n)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := newBTree()
	const n = 500
	for i := 0; i < n; i++ {
		bt.Insert(Int(int64(i)), RowID(i+1))
	}
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for k, i := range perm {
		if !bt.Delete(Int(int64(i)), RowID(i+1)) {
			t.Fatalf("delete %d failed", i)
		}
		if got := len(entries(bt)); got != n-k-1 {
			t.Fatalf("%d entries after %d deletes", got, k+1)
		}
		if _, err := bt.root.check(true); err != nil {
			t.Fatalf("invariants after deleting %d: %v", i, err)
		}
	}
	if bt.Delete(Int(0), 1) {
		t.Error("delete from empty tree returned true")
	}
}

// TestBTreeRange: point lookups across a key range find exactly their own
// entries, duplicates of a key in rid order, and nothing between or past the
// stored keys.
func TestBTreeRange(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(Int(int64(i)), RowID(i+1))
	}
	bt.Insert(Int(15), 1000)
	bt.Insert(Int(15), 500)
	for k := int64(10); k < 20; k++ {
		want := []RowID{RowID(k + 1)}
		if k == 15 {
			want = []RowID{16, 500, 1000}
		}
		if got := bt.Lookup(Int(k)); !slices.Equal(got, want) {
			t.Errorf("Lookup(%d) = %v, want %v", k, got, want)
		}
	}
	for _, miss := range []Value{Int(-1), Int(100), Float(10.5), Null} {
		if got := bt.Lookup(miss); len(got) != 0 {
			t.Errorf("Lookup(%v) = %v, want nothing", miss, got)
		}
	}
}

// entries walks bt in key order.
func entries(bt *btree) []btreeEntry {
	var out []btreeEntry
	var walk func(n *btreeNode)
	walk = func(n *btreeNode) {
		for i, e := range n.entries {
			if !n.leaf() {
				walk(n.children[i])
			}
			out = append(out, e)
		}
		if !n.leaf() {
			walk(n.children[len(n.children)-1])
		}
	}
	walk(bt.root)
	return out
}

func TestBTreeMixedTypes(t *testing.T) {
	bt := newBTree()
	vals := []Value{Int(3), Float(2.5), Text("abc"), Bool(true), Null, Int(-1)}
	for i, v := range vals {
		bt.Insert(v, RowID(i+1))
	}
	var keys []Value
	for _, e := range entries(bt) {
		keys = append(keys, e.key)
	}
	if len(keys) != len(vals) {
		t.Fatalf("got %d keys", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return Compare(keys[i], keys[j]) < 0 }) {
		t.Errorf("keys not sorted: %v", keys)
	}
	if !keys[0].IsNull() {
		t.Errorf("NULL should sort first, got %v", keys[0])
	}
}

// Property: a B-tree behaves like a sorted multiset under random
// insert/delete interleavings, and its invariants hold throughout.
func TestQuickBTreeModel(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%600) + 10
		bt := newBTree()
		model := map[[2]int64]bool{} // (key, rid)
		for i := 0; i < ops; i++ {
			k := r.Int63n(50)
			rid := RowID(r.Int63n(40) + 1)
			if r.Intn(3) == 0 {
				want := model[[2]int64{k, int64(rid)}]
				got := bt.Delete(Int(k), rid)
				if got != want {
					t.Logf("delete(%d,%d) = %v, model %v", k, rid, got, want)
					return false
				}
				delete(model, [2]int64{k, int64(rid)})
			} else {
				bt.Insert(Int(k), rid)
				model[[2]int64{k, int64(rid)}] = true
			}
			if n := len(entries(bt)); n != len(model) {
				t.Logf("size mismatch: %d vs %d", n, len(model))
				return false
			}
		}
		if _, err := bt.root.check(true); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		// Full scan must equal sorted model.
		var got [][2]int64
		for _, e := range entries(bt) {
			got = append(got, [2]int64{e.key.I, int64(e.rid)})
		}
		want := make([][2]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i][0] != want[j][0] {
				return want[i][0] < want[j][0]
			}
			return want[i][1] < want[j][1]
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	b.ReportAllocs()
	bt := newBTree()
	for i := 0; i < b.N; i++ {
		bt.Insert(Int(int64(i)), RowID(i+1))
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	bt := newBTree()
	for i := 0; i < 100000; i++ {
		bt.Insert(Int(int64(i)), RowID(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Lookup(Int(int64(i % 100000)))
	}
}
