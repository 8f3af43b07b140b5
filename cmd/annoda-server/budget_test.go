package main

// Allocation ceilings for the answer write path, counted with
// testing.AllocsPerRun on the system main starts (1k genes, ProtDB plugged
// in). Each ceiling is the count measured when it was set plus 10%: a
// change that allocates more on these paths has to raise the number here,
// in the diff, with its reason.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/lorel"
	"repro/internal/mediator"
)

const (
	askHitWriteAllocs   = 11 // the memoized /api/ask hit write of Figure 5(b): 10 measured
	queryHitWriteAllocs = 14 // the memoized /api/query hit write: 13 measured
	textMemberAllocs    = 15 // building the /api/query member of the Figure 5(b) answer: 14 measured
)

// memoizedHit answers src twice on sys, so the second Result is a cache hit,
// and writes it once through write so its rendering is memoized.
func memoizedHit(t *testing.T, sys *core.System, src string, write func(http.ResponseWriter, *http.Request, string, *lorel.Result, *mediator.Stats)) (*lorel.Result, *mediator.Stats) {
	t.Helper()
	var res *lorel.Result
	var st *mediator.Stats
	for i := 0; i < 2; i++ {
		var err error
		if res, st, err = sys.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if !st.CacheHit {
		t.Fatalf("%s: second query was not a cache hit", src)
	}
	rec := httptest.NewRecorder()
	write(rec, httptest.NewRequest(http.MethodGet, "/", nil), src, res, st)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d %.200s", src, rec.Code, rec.Body)
	}
	return res, st
}

// TestAnswerWriteAllocBudget holds the answer write path to its allocation
// ceilings. The race detector changes what allocates (and sync.Pool drops
// items under it at random), so the counts are only taken without it.
func TestAnswerWriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sys := demoSystem(t)
	fig5b, err := sys.ToLorel(core.Figure5bQuestion())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	for _, tc := range []struct {
		name    string
		src     string
		write   func(http.ResponseWriter, *http.Request, string, *lorel.Result, *mediator.Stats)
		ceiling float64
	}{
		{"ask hit write", fig5b, writeAskAnswer, askHitWriteAllocs},
		{"query hit write", fig5b, writeQueryAnswer, queryHitWriteAllocs},
	} {
		res, st := memoizedHit(t, sys, tc.src, tc.write)
		got := testing.AllocsPerRun(50, func() {
			w := &discard{h: http.Header{}}
			tc.write(w, req, tc.src, res, st)
		})
		t.Logf("%s: %.0f allocs", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}

	res, _, err := sys.Query(fig5b)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := textMember(nil, res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("text member: %.0f allocs", got)
	if got > textMemberAllocs {
		t.Errorf("text member: %.0f allocs, ceiling %d", got, textMemberAllocs)
	}
}
