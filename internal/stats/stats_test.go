package stats

import (
	"sync"
	"testing"
	"time"
)

// Every method must be inert on a nil table — the mediator's observation
// sites are unconditional.
func TestNilTableInert(t *testing.T) {
	var tb *Table
	tb.SetEntities("GO", 100)
	tb.SetLabels("GO", map[string]int{"Gene": 3})
	tb.ObserveFetch("GO", time.Millisecond)
	tb.ObservePushdown("GO", `G.Organism = "x"`, 10, 2)
	if s := tb.Snapshot(); s != nil {
		t.Errorf("nil table snapshot = %v, want nil", s)
	}
}

func TestSelectivityAccumulates(t *testing.T) {
	tb := New()
	shape := `G.Organism = "Homo sapiens"`
	tb.ObservePushdown("GO", shape, 100, 20)
	tb.ObservePushdown("GO", shape, 100, 30)
	// A different shape at the same source is tracked independently.
	tb.ObservePushdown("GO", "other", 10, 10)
	preds := tb.Snapshot()[0].Predicates
	want := []PredicateStats{{Shape: shape, Fetched: 200, Kept: 50}, {Shape: "other", Fetched: 10, Kept: 10}}
	if len(preds) != len(want) || preds[0] != want[0] || preds[1] != want[1] {
		t.Fatalf("predicates = %+v, want %+v", preds, want)
	}
}

func TestFetchEWMASettles(t *testing.T) {
	tb := New()
	tb.ObserveFetch("OMIM", 100*time.Microsecond)
	snap := tb.Snapshot()
	if len(snap) != 1 || snap[0].FetchEWMAMicros != 100 {
		t.Fatalf("first observation should seed the EWMA, got %+v", snap)
	}
	for i := 0; i < 50; i++ {
		tb.ObserveFetch("OMIM", 200*time.Microsecond)
	}
	snap = tb.Snapshot()
	if got := snap[0].FetchEWMAMicros; got < 195 || got > 200 {
		t.Errorf("EWMA after 50 steady observations = %d, want ~200", got)
	}
	if snap[0].FetchCount != 51 {
		t.Errorf("FetchCount = %d, want 51", snap[0].FetchCount)
	}
}

func TestSnapshotStableOrderAndIsolation(t *testing.T) {
	tb := New()
	tb.SetEntities("OMIM", 5)
	tb.SetEntities("GO", 7)
	tb.SetLabels("GO", map[string]int{"Gene": 7})
	tb.ObservePushdown("GO", "b", 1, 1)
	tb.ObservePushdown("GO", "a", 1, 0)
	snap := tb.Snapshot()
	if len(snap) != 2 || snap[0].Source != "GO" || snap[1].Source != "OMIM" {
		t.Fatalf("snapshot order = %+v, want GO then OMIM", snap)
	}
	if snap[0].Predicates[0].Shape != "a" || snap[0].Predicates[1].Shape != "b" {
		t.Errorf("predicate order = %+v, want a then b", snap[0].Predicates)
	}
	// Mutating the snapshot must not reach the table.
	snap[0].Labels["Gene"] = 999
	if n := tb.Snapshot()[0].Entities; n != 7 {
		t.Errorf("entities = %d, want 7", n)
	}
	if tb.Snapshot()[0].Labels["Gene"] != 7 {
		t.Error("snapshot mutation leaked into the table")
	}
}

func TestConcurrentObservation(t *testing.T) {
	tb := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb.ObservePushdown("GO", "shape", 10, 5)
				tb.ObserveFetch("GO", time.Microsecond)
				tb.SetEntities("GO", i)
				tb.Snapshot()
			}
		}()
	}
	wg.Wait()
	if p := tb.Snapshot()[0].Predicates[0]; p.Fetched != 8*200*10 || p.Kept != 8*200*5 {
		t.Fatalf("predicate = %+v, want %d fetched and %d kept", p, 8*200*10, 8*200*5)
	}
}
