package mediator

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/oem"
)

// forceParallelFuse lowers the parallel-fusion gate so small test corpora
// exercise the sharded path, restoring it afterwards.
func forceParallelFuse(t *testing.T) {
	t.Helper()
	old := parallelFuseMinEntities
	parallelFuseMinEntities = 1
	t.Cleanup(func() { parallelFuseMinEntities = old })
}

// conflictStrings renders a stats conflict list for order-sensitive
// comparison: sequential and parallel fusion must report the same
// conflicts, same winners, same order.
func conflictStrings(cs []Conflict) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// TestParallelFusionParity: over several seeded randomized corpora (with
// aggressive conflict and missing-value rates to exercise reconciliation
// and alias collisions), the sharded parallel fusion must produce a fused
// world identical to the sequential reference — CanonicalText of the full
// graph (set semantics, oid-free), conflict lists, and reconciliation
// winners all byte-equal.
func TestParallelFusionParity(t *testing.T) {
	forceParallelFuse(t)
	for _, seed := range []uint64{1, 7, 42, 20050405} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := datagen.Generate(datagen.Config{
				Seed: seed, Genes: 120, GoTerms: 60, Diseases: 80,
				ConflictRate: 0.4, MissingRate: 0.25,
			})
			for _, policy := range []Policy{PolicyPreferPrimary, PolicyMajority, PolicyUnion} {
				// Workers: 1 routes fusion to fuseSequential (fuseShards() < 2).
				seq := manager(t, c, Options{DisableCache: true, Policy: policy, Workers: 1})
				par := manager(t, c, Options{DisableCache: true, Policy: policy, Workers: 8})

				gs, ss, err := seq.FusedGraph()
				if err != nil {
					t.Fatalf("policy %v sequential fuse: %v", policy, err)
				}
				gp, sp, err := par.FusedGraph()
				if err != nil {
					t.Fatalf("policy %v parallel fuse: %v", policy, err)
				}
				if gs.Len() != gp.Len() {
					t.Errorf("policy %v: object counts differ: seq %d par %d", policy, gs.Len(), gp.Len())
				}
				ts := oem.CanonicalText(gs, "ANNODA-GML", gs.Root("ANNODA-GML"))
				tp := oem.CanonicalText(gp, "ANNODA-GML", gp.Root("ANNODA-GML"))
				if ts != tp {
					t.Errorf("policy %v: fused worlds differ (CanonicalText %d vs %d bytes)", policy, len(ts), len(tp))
				}
				cseq, cpar := conflictStrings(ss.Conflicts), conflictStrings(sp.Conflicts)
				if len(cseq) != len(cpar) {
					t.Fatalf("policy %v: conflict counts differ: seq %d par %d", policy, len(cseq), len(cpar))
				}
				for i := range cseq {
					if cseq[i] != cpar[i] {
						t.Errorf("policy %v: conflict %d differs:\nseq: %s\npar: %s", policy, i, cseq[i], cpar[i])
					}
				}
			}
		})
	}
}

// TestParallelFusionRecordedParity: a recorded parallel fusion must leave
// the snapshot patchable — apply a delta to a parallel-built epoch and
// check the patched world matches a fresh sequential build of the edited
// corpus (the strongest bookkeeping-equivalence check available).
func TestParallelFusionRecordedParity(t *testing.T) {
	forceParallelFuse(t)
	c := datagen.Generate(datagen.Config{
		Seed: 99, Genes: 100, GoTerms: 50, Diseases: 60,
		ConflictRate: 0.3, MissingRate: 0.2,
	})
	m := mutManager(t, c, Options{Workers: 8})
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	corpusMu.Lock()
	c.Genes[10].Description = "parallel-built snapshot, patched"
	c.Genes[11].Aliases = append(c.Genes[11].Aliases, "PARPATCH1")
	corpusMu.Unlock()
	rr := refresh(t, m, "LocusLink")
	if rr.FullRebuild || !rr.Patched {
		t.Fatalf("delta path not taken over a parallel-built snapshot: %+v", rr)
	}
	assertEquivalent(t, m, c)
	assertSnapshotTight(t, m, c)
}

// TestParallelFusionQueryAnswers: query answers over the parallel-fused
// snapshot match the sequential ones (CanonicalText of the answer graph).
func TestParallelFusionQueryAnswers(t *testing.T) {
	forceParallelFuse(t)
	c := datagen.Generate(datagen.Config{
		Seed: 5, Genes: 150, GoTerms: 70, Diseases: 90,
		ConflictRate: 0.35, MissingRate: 0.2,
	})
	seq := manager(t, c, Options{Workers: 1}) // fuseSequential
	par := manager(t, c, Options{Workers: 8})
	// The first two touch every concept and ride the snapshot path; the
	// last two prune sources, so they exercise parallel fusion on the
	// per-query pipeline instead.
	queries := []struct {
		q        string
		snapshot bool
	}{
		{snapshotQ, true},
		{`select G.Symbol from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`, true},
		{`select G from ANNODA-GML.Gene G where exists G.Disease`, false},
		{`select D from ANNODA-GML.Disease D`, false},
	}
	for _, tc := range queries {
		q := tc.q
		rs, ss, err := seq.QueryString(q)
		if err != nil {
			t.Fatalf("%s (seq): %v", q, err)
		}
		rp, sp, err := par.QueryString(q)
		if err != nil {
			t.Fatalf("%s (par): %v", q, err)
		}
		if tc.snapshot && (!ss.SnapshotUsed || !sp.SnapshotUsed) {
			t.Fatalf("%s: did not take the snapshot path (seq %v par %v)", q, ss.SnapshotUsed, sp.SnapshotUsed)
		}
		ts := oem.CanonicalText(rs.Graph, "answer", rs.Answer)
		tp := oem.CanonicalText(rp.Graph, "answer", rp.Answer)
		if ts != tp {
			t.Errorf("%s: answers differ between sequential and parallel fusion", q)
		}
	}
}
