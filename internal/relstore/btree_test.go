package relstore

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeInsertLookup(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 1000; i++ {
		bt.Insert(Int(int64(i%100)), RowID(i+1))
	}
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d", bt.Len())
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
	if bt.Len() != 1000 {
		t.Errorf("duplicate insert changed size to %d", bt.Len())
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
		if bt.Len() != n-k-1 {
			t.Fatalf("Len = %d after %d deletes", bt.Len(), k+1)
		}
		if _, err := bt.root.check(true); err != nil {
			t.Fatalf("invariants after deleting %d: %v", i, err)
		}
	}
	if bt.Delete(Int(0), 1) {
		t.Error("delete from empty tree returned true")
	}
}

func TestBTreeRange(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(Int(int64(i)), RowID(i+1))
	}
	var got []int64
	bt.Range(Int(10), Int(20), true, false, func(v Value, _ RowID) bool {
		got = append(got, v.I)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[len(got)-1] != 19 {
		t.Fatalf("range [10,20) = %v", got)
	}
	// Early stop.
	count := 0
	scanAll(bt, func(Value, RowID) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

// scanAll visits every entry of bt in key order through the range walk
// with both bounds off.
func scanAll(bt *btree, visit func(Value, RowID) bool) {
	bt.root.rangeVisit(Null, Null, false, false, false, false, visit)
}

func TestBTreeMixedTypes(t *testing.T) {
	bt := newBTree()
	vals := []Value{Int(3), Float(2.5), Text("abc"), Bool(true), Null, Int(-1)}
	for i, v := range vals {
		bt.Insert(v, RowID(i+1))
	}
	var keys []Value
	scanAll(bt, func(v Value, _ RowID) bool {
		keys = append(keys, v)
		return true
	})
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
			if bt.Len() != len(model) {
				t.Logf("size mismatch: %d vs %d", bt.Len(), len(model))
				return false
			}
		}
		if _, err := bt.root.check(true); err != nil {
			t.Logf("invariant: %v", err)
			return false
		}
		// Full scan must equal sorted model.
		var got [][2]int64
		scanAll(bt, func(v Value, rid RowID) bool {
			got = append(got, [2]int64{v.I, int64(rid)})
			return true
		})
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
