package mediator

// Allocation ceilings for the epoch's two hot copies, counted with
// testing.AllocsPerRun on the federation annoda-server serves (1k genes,
// ProtDB plugged in). Each ceiling is the count measured when it was set
// plus 10%: a change that allocates more on these paths has to raise the
// number here, in the diff, with its reason.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/lorel"
	"repro/internal/oem"
)

const (
	maskedEvalAllocs    = 1346  // the masked epoch evaluation of Figure 5(b), answer import included, postings reused: 1,224 measured
	epochEvalAllocs     = 440   // the unmasked epochShapeLorel evaluation, answer import included, postings reused: 400 measured
	oneLocusPatchAllocs = 45103 // Clone + Patch of the epoch by a one-locus LocusLink change set: 41,003 measured
)

// fig5bLorel is the Lorel annoda-server sends for Figure 5(b)'s question
// (include GO, exclude OMIM): it names Gene, Annotation and Disease, so the
// epoch answers it with Protein masked.
const fig5bLorel = `select G from ANNODA-GML.Gene G where (exists G.Annotation) and not exists G.Disease`

// epochShapeLorel is the shape of the benchmark harness's lorel_epoch class:
// a projection under a where clause of existence tests that names all four
// concepts, so the epoch answers it with nothing masked.
const epochShapeLorel = `select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease and exists G.Protein` +
	` and exists G.Annotation.GoID and exists G.Links.GO and not exists G.Disease.Title and exists G.Annotation.Evidence`

// TestEpochAllocBudget holds the masked evaluation and the one-locus patch
// to their allocation ceilings. The race detector changes what allocates
// (and sync.Pool drops items under it at random), so the counts are only
// taken without it.
func TestEpochAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := datagen.Generate(datagen.DefaultConfig())
	m := fedManager(t, c, Options{})
	q, err := lorel.Parse(fig5bLorel)
	if err != nil {
		t.Fatal(err)
	}
	an, err := m.analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	ep, _, err := m.pinEpoch()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.planFor(q, q.String())
	if err != nil {
		t.Fatal(err)
	}
	d := m.snapshotPathDecision(an, q, ep)
	if !d.safe || d.mask == nil {
		t.Fatalf("Figure 5(b) is not a masked epoch evaluation: %+v", d)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := plan.EvalMasked(ep.w.Graph(), d.mask, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("masked eval: %.0f allocs", got)
	if got > maskedEvalAllocs {
		t.Errorf("masked eval: %.0f allocs, ceiling %d", got, maskedEvalAllocs)
	}
	eq, err := lorel.Parse(epochShapeLorel)
	if err != nil {
		t.Fatal(err)
	}
	epochPlan, err := m.planFor(eq, eq.String())
	if err != nil {
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(10, func() {
		if _, err := epochPlan.EvalMasked(ep.w.Graph(), nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("unmasked epoch-shape eval: %.0f allocs", got)
	if got > epochEvalAllocs {
		t.Errorf("unmasked epoch-shape eval: %.0f allocs, ceiling %d", got, epochEvalAllocs)
	}

	ll := m.reg.Get("LocusLink")
	before, err := ll.Model()
	if err != nil {
		t.Fatal(err)
	}
	editGene(c, editableGenes(t, c, 1)[0], "budget")
	ll.Refresh()
	after, err := ll.Model()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := delta.Diff(before, after, "LocusLink", "Locus")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Upserted) != 1 || len(cs.Deleted) != 1 {
		t.Fatalf("the edit upserted %d and deleted %d LocusLink entities, want the one edited replaced", len(cs.Upserted), len(cs.Deleted))
	}
	mp := m.gl.MappingFor("LocusLink")
	got = testing.AllocsPerRun(5, func() {
		if _, err := ep.w.Patch(cs, mp); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-locus patch: %.0f allocs", got)
	if got > oneLocusPatchAllocs {
		t.Errorf("one-locus patch: %.0f allocs, ceiling %d", got, oneLocusPatchAllocs)
	}

	// A patched world starts with no postings: its first exists-only
	// evaluation builds them, which every refresh's first reader pays.
	patched, err := ep.w.Patch(cs, mp)
	if err != nil {
		t.Fatal(err)
	}
	allocs, took := firstEval(t, epochPlan, patched.Graph())
	t.Logf("first epoch-shape eval on a fresh epoch (postings built): %d allocs, %v", allocs, took)
}

// firstEval evaluates plan once on g, unmasked, and returns what that one
// evaluation allocated and took.
func firstEval(tb testing.TB, plan *lorel.Plan, g *oem.Graph) (allocs uint64, took time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var ec lorel.EvalCounts
	if _, err := plan.EvalMasked(g, nil, &ec); err != nil {
		tb.Fatal(err)
	}
	took = time.Since(t0)
	runtime.ReadMemStats(&after)
	if !ec.WherePostings || ec.PostingsReused != 0 {
		tb.Fatalf("first evaluation: %+v, want every posting built", ec)
	}
	return after.Mallocs - before.Mallocs, took
}
