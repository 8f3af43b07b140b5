package fused

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/oem"
	"repro/internal/sources/locuslink"
	"repro/internal/wrapper"
)

// TestReplayMatchesLive: a checkpoint of a world, decoded and replayed
// through the change sets of N one-locus patches, encodes to the same
// bytes as the world those patches produced live. Whatever oid a patch
// hands the objects it re-fuses, replay must hand out the same.
func TestReplayMatchesLive(t *testing.T) {
	c := datagen.Generate(datagen.Config{Seed: 20050405, Genes: 250, GoTerms: 80, Diseases: 100,
		ConflictRate: 0.3, MissingRate: 0.15})
	f := newFederation(t, c)
	live := f.build(t)
	checkpoint, err := live.Encode(0, BuildStats{})
	if err != nil {
		t.Fatal(err)
	}
	var changes []*delta.ChangeSet
	for i := 0; i < 12; i++ {
		cs := editLocus(t, f, c, (i*37)%len(c.Genes), fmt.Sprintf("replay %d", i))
		next, err := live.Patch(cs, f.mappings["LocusLink"])
		if err != nil {
			t.Fatal(err)
		}
		live, changes = next, append(changes, cs)
	}
	cp, err := Decode(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range changes {
		if err := cp.Apply(cs, f.mappings["LocusLink"]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := live.Encode(0, BuildStats{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.Seal().Encode(0, BuildStats{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint + %d replayed patches encode to %d bytes, the live world to %d, and they differ",
			len(changes), len(got), len(want))
	}
}

// editLocus gives gene gi a new description (a reconciled label, so the
// patch re-fuses the gene) and returns LocusLink's change set for it,
// leaving f's LocusLink model at the edited state.
func editLocus(t testing.TB, f *federation, c *datagen.Corpus, gi int, desc string) *delta.ChangeSet {
	t.Helper()
	c.Genes[gi].Description = desc
	c.Genes[gi].LLMissingDesc = false
	ll, err := locuslink.Load(c)
	if err != nil {
		t.Fatal(err)
	}
	model, err := wrapper.NewLocusLink(ll).Model()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := delta.Diff(f.models["LocusLink"], model, "LocusLink", "Locus")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Empty() {
		t.Fatalf("editing gene %d produced an empty change set", gi)
	}
	f.models["LocusLink"] = model
	return cs
}

// tableLen reads the length of g's object table — the next oid it would
// hand out were none free — from the header of its binary encoding.
func tableLen(t testing.TB, g *oem.Graph) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := oem.EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	n, k := binary.Uvarint(buf.Bytes()[5:]) // after the magic and the version byte
	if k <= 0 {
		t.Fatal("unreadable binary header")
	}
	return n
}

// cloneBytes is how many bytes one Clone of g allocates.
func cloneBytes(g *oem.Graph) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.KeepAlive(g.Clone())
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestChurnKeepsTableTight: every one-locus patch re-fuses its gene under
// fresh objects and frees the old ones. After 500 such patches of a
// 250-gene world, the object table, and what cloning it costs, is that of
// a fresh build holding as many objects — not of the highest oid ever
// handed out.
func TestChurnKeepsTableTight(t *testing.T) {
	c := datagen.Generate(datagen.Config{Seed: 20050405, Genes: 250, GoTerms: 80, Diseases: 100,
		ConflictRate: 0.3, MissingRate: 0.15})
	f := newFederation(t, c)
	w := f.build(t)
	const cycles = 500
	for i := 0; i < cycles; i++ {
		cs := editLocus(t, f, c, (i*37)%len(c.Genes), fmt.Sprintf("churn %d", i))
		next, err := w.Patch(cs, f.mappings["LocusLink"])
		if err != nil {
			t.Fatal(err)
		}
		w = next
	}
	fresh := newFederation(t, c).build(t)
	live, freshLive := w.Graph().Len(), fresh.Graph().Len()
	if live != freshLive {
		t.Fatalf("after %d patches the world holds %d objects, a fresh build %d", cycles, live, freshLive)
	}
	got, want := tableLen(t, w.Graph()), tableLen(t, fresh.Graph())
	t.Logf("%d objects: table %d after %d patches, %d fresh", live, got, cycles, want)
	// One patch's transient: the objects of the gene it re-fuses, allocated
	// before the old ones are freed.
	if slack := uint64(live / 20); got > want+slack {
		t.Errorf("table of %d entries after %d patches, %d in a fresh build of %d objects (slack %d)", got, cycles, want, live, slack)
	}
	if got, want := cloneBytes(w.Graph()), cloneBytes(fresh.Graph()); float64(got) > 1.1*float64(want) {
		t.Errorf("cloning the churned world allocates %d bytes, a fresh one %d", got, want)
	}
}
