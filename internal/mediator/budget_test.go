package mediator

// Allocation ceilings for the epoch's two hot copies, counted with
// testing.AllocsPerRun on the federation annoda-server serves (1k genes,
// ProtDB plugged in). Each ceiling is the count measured when it was set
// plus 10%: a change that allocates more on these paths has to raise the
// number here, in the diff, with its reason.

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/lorel"
)

const (
	maskedEvalAllocs    = 4313  // the masked epoch evaluation of Figure 5(b), answer import included: 3,921 measured
	oneLocusPatchAllocs = 45103 // Clone + Patch of the epoch by a one-locus LocusLink change set: 41,003 measured
)

// fig5bLorel is the Lorel annoda-server sends for Figure 5(b)'s question
// (include GO, exclude OMIM): it names Gene, Annotation and Disease, so the
// epoch answers it with Protein masked.
const fig5bLorel = `select G from ANNODA-GML.Gene G where (exists G.Annotation) and not exists G.Disease`

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
}
