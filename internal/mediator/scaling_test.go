package mediator

import (
	"testing"

	"repro/internal/datagen"
)

// TestPushdownFetchScalesLinearly: a pushed-down query's work grows with the
// corpus, not faster. Work is counted in allocations, not wall-clock time,
// so the check holds on a loaded machine: twice the genes may cost at most
// three times the allocations (about 2.0x at the time of writing).
func TestPushdownFetchScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check")
	}
	allocsFor := func(genes int) float64 {
		c := datagen.Generate(datagen.Config{Seed: 9, Genes: genes, GoTerms: 40, Diseases: 30})
		m := manager(t, c, Options{DisableCache: true})
		// AllocsPerRun's warm-up run builds the source models and the
		// translation memo; the measured runs are the steady-state query.
		return testing.AllocsPerRun(3, func() {
			if _, _, err := m.QueryString(`select G from ANNODA-GML.Gene G where G.Symbol like "A%"`); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1 := allocsFor(2000)
	a2 := allocsFor(4000)
	t.Logf("2000 genes: %.0f allocs, 4000 genes: %.0f allocs (ratio %.2fx)", a1, a2, a2/a1)
	if a2 > 3*a1 {
		t.Fatalf("pushdown fetch looks superlinear: 2000=%.0f 4000=%.0f allocs", a1, a2)
	}
}
