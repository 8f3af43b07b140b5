package mediator

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/fused"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/snapstore"
	"repro/internal/wrapper"
)

// persistManager builds a mutable-corpus manager with persistence enabled
// on dir.
func persistManager(t testing.TB, c *datagen.Corpus, opts Options, dir string, pol PersistPolicy) *Manager {
	t.Helper()
	m := mutManager(t, c, opts)
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := m.EnablePersistence(st, pol); err != nil {
		t.Fatal(err)
	}
	return m
}

// worldText renders a manager's fused world in the oid-free canonical
// form; byte equality of two worldTexts is the parity notion every restore
// test asserts.
func worldText(t testing.TB, m *Manager) string {
	t.Helper()
	g, _, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	return oem.CanonicalText(g, "ANNODA-GML", g.Root("ANNODA-GML"))
}

func mustRestore(t testing.TB, m *Manager) *RestoreResult {
	t.Helper()
	rr, err := m.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Restored {
		t.Fatalf("restore fell back to cold start: %+v", rr)
	}
	return rr
}

// editGenes mutates n gene descriptions past the MDSM sampling window (see
// TestRefreshSourceGeneDelta for why index 40).
func editGenes(t testing.TB, c *datagen.Corpus, n int, tag string) {
	t.Helper()
	corpusMu.Lock()
	defer corpusMu.Unlock()
	edited := 0
	for i := 40; i < len(c.Genes) && edited < n; i++ {
		if c.Genes[i].LLMissingDesc {
			continue
		}
		c.Genes[i].Description = fmt.Sprintf("%s %d", tag, i)
		edited++
	}
	if edited != n {
		t.Fatalf("corpus too small: only %d editable genes", edited)
	}
}

// TestSaveRestoreParity is the codec round-trip battery the subsystem
// hangs on: across seeded corpora × all three reconciliation policies, a
// checkpointed world restored into a fresh manager must be byte-identical
// (CanonicalText) and answer-identical to the live one — and the payload
// codec must reproduce its own input byte for byte.
func TestSaveRestoreParity(t *testing.T) {
	for _, seed := range []uint64{88, 20050405} {
		for _, policy := range []fused.Policy{fused.PolicyPreferPrimary, fused.PolicyMajority, fused.PolicyUnion} {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, policy), func(t *testing.T) {
				c := datagen.Generate(datagen.Config{
					Seed: seed, Genes: 60, GoTerms: 40, Diseases: 30,
					ConflictRate: 0.3, MissingRate: 0.15,
				})
				dir := t.TempDir()
				opts := Options{Policy: policy}
				live := persistManager(t, c, opts, dir, PersistPolicy{})
				want := worldText(t, live)
				res, err := live.SaveSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if res.Seq != 1 || res.Bytes == 0 {
					t.Fatalf("save result %+v", res)
				}

				// Pure codec round trip: decode + re-encode reproduces the
				// payload byte for byte.
				st, err := snapstore.Open(dir, snapstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				payload, err := st.ReadCheckpoint(res.Seq)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := fused.Decode(payload)
				if err != nil {
					t.Fatal(err)
				}
				fp, bs := dec.FP, dec.Stats
				re, err := dec.Seal().Encode(fp, bs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(payload, re) {
					t.Fatal("re-encoding a decoded checkpoint payload does not reproduce its input")
				}

				restored := persistManager(t, c, opts, dir, PersistPolicy{})
				rr := mustRestore(t, restored)
				if rr.Seq != res.Seq || rr.WALReplayed != 0 {
					t.Fatalf("restore result %+v", rr)
				}
				if got := worldText(t, restored); got != want {
					t.Errorf("restored world diverges from live world\n--- restored ---\n%s--- live ---\n%s",
						clip(got), clip(want))
				}
				for i, q := range deltaEquivQueries {
					lr, _, err := live.QueryString(q)
					if err != nil {
						t.Fatalf("query %d live: %v", i, err)
					}
					gr, _, err := restored.QueryString(q)
					if err != nil {
						t.Fatalf("query %d restored: %v", i, err)
					}
					lw := oem.CanonicalText(lr.Graph, "answer", lr.Answer)
					gw := oem.CanonicalText(gr.Graph, "answer", gr.Answer)
					if lw != gw {
						t.Errorf("query %d (%s): restored answer diverges", i, q)
					}
				}
			})
		}
	}
}

// TestRestoreServesWithoutFetching pins the headline contract: a manager
// restored from a checkpoint answers snapshot-safe queries without ever
// calling a wrapper's fetch path. The restore manager's wrappers error on
// Model(), so any fetch fails loudly.
func TestRestoreServesWithoutFetching(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{})
	want := worldText(t, live)
	if _, err := live.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	// Same global model, same source names — but every Model() call is a
	// trap.
	reg := wrapper.NewRegistry()
	for _, w := range live.reg.All() {
		if err := reg.Add(&trapSource{name: w.Name(), entity: w.EntityLabel()}); err != nil {
			t.Fatal(err)
		}
	}
	m := New(reg, live.gl, Options{})
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := m.EnablePersistence(st, PersistPolicy{}); err != nil {
		t.Fatal(err)
	}
	mustRestore(t, m)

	g, stats, err := m.FusedGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CacheHit {
		t.Error("FusedGraph after restore reports a build")
	}
	if got := oem.CanonicalText(g, "ANNODA-GML", g.Root("ANNODA-GML")); got != want {
		t.Error("restored world diverges from the checkpointed one")
	}
	res, stats, err := m.QueryString(snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SnapshotUsed {
		t.Error("post-restore query did not take the snapshot path")
	}
	if res.Size() == 0 {
		t.Error("post-restore query returned an empty answer")
	}
	if n := metric(m, "annoda_restores_total"); n != 1 {
		t.Errorf("restores = %d, want 1", n)
	}
}

// trapSource fails every fetch: restored serving must never reach Model.
type trapSource struct {
	name, entity string
}

func (s *trapSource) Name() string        { return s.name }
func (s *trapSource) EntityLabel() string { return s.entity }
func (s *trapSource) Model() (*oem.Graph, error) {
	return nil, fmt.Errorf("trap: %s.Model() called after restore", s.name)
}
func (s *trapSource) Refresh()        {}
func (s *trapSource) Version() uint64 { return 0 }

// TestRestoreReplaysWAL: refreshes applied after a checkpoint land in the
// WAL and replay through the patch path on restore; the restored manager
// must match the live post-refresh world exactly, and keep absorbing
// further refreshes (its bookkeeping survived the round trip intact).
func TestRestoreReplaysWAL(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{})
	if _, err := live.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	editGenes(t, c, 5, "first edit wave")
	rr := refresh(t, live, "LocusLink")
	if !rr.Patched || rr.FullRebuild {
		t.Fatalf("refresh did not patch: %+v", rr)
	}
	editGenes(t, c, 3, "second edit wave")
	rr = refresh(t, live, "LocusLink")
	if !rr.Patched {
		t.Fatalf("second refresh did not patch: %+v", rr)
	}
	if appends, ckpts := metric(live, "annoda_wal_records_appended_total"), metric(live, "annoda_checkpoints_written_total"); appends != 2 || ckpts != 1 {
		t.Fatalf("persist counters = %d appends / %d checkpoints, want 2 WAL appends on 1 checkpoint", appends, ckpts)
	}
	want := worldText(t, live)

	restored := persistManager(t, c, Options{}, dir, PersistPolicy{})
	res := mustRestore(t, restored)
	if res.WALReplayed != 2 {
		t.Fatalf("replayed %d WAL records, want 2", res.WALReplayed)
	}
	if got := worldText(t, restored); got != want {
		t.Errorf("restored world diverges after WAL replay\n--- restored ---\n%s--- live ---\n%s",
			clip(got), clip(want))
	}

	// The restored bookkeeping must keep working: a further refresh patches
	// both managers to the same world.
	editGenes(t, c, 4, "post-restore wave")
	if rr := refresh(t, live, "LocusLink"); !rr.Patched {
		t.Fatalf("live post-restore refresh: %+v", rr)
	}
	if rr := refresh(t, restored, "LocusLink"); !rr.Patched {
		t.Fatalf("restored post-restore refresh: %+v", rr)
	}
	if got, want := worldText(t, restored), worldText(t, live); got != want {
		t.Error("worlds diverge after refreshing the restored manager")
	}
	assertEquivalent(t, restored, c)
	assertSnapshotTight(t, restored, c)
}

// TestAutoCheckpoint: crossing the policy's record bound folds the WAL
// into a fresh checkpoint; restore then replays only the short new WAL.
func TestAutoCheckpoint(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{EveryRecords: 2})
	if _, _, err := live.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}

	// First refresh: no checkpoint exists yet, so it checkpoints the
	// published epoch instead of logging a delta with no base.
	editGenes(t, c, 2, "wave one")
	refresh(t, live, "LocusLink")
	if ckpts, appends := metric(live, "annoda_checkpoints_written_total"), metric(live, "annoda_wal_records_appended_total"); ckpts != 1 || appends != 0 {
		t.Fatalf("after first refresh: %d checkpoints / %d appends, want checkpoint without WAL", ckpts, appends)
	}
	// Two more refreshes: the second append crosses EveryRecords=2 and
	// auto-checkpoints.
	editGenes(t, c, 2, "wave two")
	refresh(t, live, "LocusLink")
	editGenes(t, c, 2, "wave three")
	refresh(t, live, "LocusLink")
	if ckpts, appends := metric(live, "annoda_checkpoints_written_total"), metric(live, "annoda_wal_records_appended_total"); ckpts != 2 || appends != 2 {
		t.Fatalf("after churn: %d checkpoints / %d appends, want 2 and 2", ckpts, appends)
	}

	restored := persistManager(t, c, Options{}, dir, PersistPolicy{})
	rr := mustRestore(t, restored)
	if rr.WALReplayed != 0 {
		t.Fatalf("replayed %d records, want 0 (WAL folded into checkpoint)", rr.WALReplayed)
	}
	if got, want := worldText(t, restored), worldText(t, live); got != want {
		t.Error("auto-checkpointed world diverges")
	}
}

// TestFullRebuildResetsLineage: a refresh too large for the delta path
// (or any lazily rebuilt epoch) never reaches the WAL, so a later small
// delta must NOT be appended to the stale lineage — replay would apply it
// to a base world that is missing the rebuild. The guard folds the
// rebuilt world into a fresh checkpoint instead; restore must reproduce
// the live post-rebuild world exactly.
func TestFullRebuildResetsLineage(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	opts := Options{MaxDeltaFraction: 0.05}
	live := persistManager(t, c, opts, dir, PersistPolicy{EveryRecords: 1 << 30})
	if _, err := live.SaveSnapshot(); err != nil { // checkpoint 1
		t.Fatal(err)
	}
	editGenes(t, c, 2, "small wave") // 2/60 < 5%: delta path, WAL record
	if rr := refresh(t, live, "LocusLink"); !rr.Patched || rr.FullRebuild {
		t.Fatalf("small refresh: %+v", rr)
	}
	editGenes(t, c, 10, "big wave") // 10/60 > 5%: full rebuild, bypasses the store
	if rr := refresh(t, live, "LocusLink"); !rr.FullRebuild {
		t.Fatalf("big refresh did not full-rebuild: %+v", rr)
	}
	// The next query lazily rebuilds the epoch from the refreshed sources;
	// the store still describes the pre-rebuild lineage.
	if _, _, err := live.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	editGenes(t, c, 2, "post-rebuild wave")
	if rr := refresh(t, live, "LocusLink"); !rr.Patched || rr.FullRebuild {
		t.Fatalf("post-rebuild refresh: %+v", rr)
	}
	if ckpts := metric(live, "annoda_checkpoints_written_total"); ckpts != 2 {
		t.Fatalf("%d checkpoints: the post-rebuild delta must checkpoint (broken lineage), not append", ckpts)
	}
	want := worldText(t, live)

	restored := persistManager(t, c, opts, dir, PersistPolicy{})
	mustRestore(t, restored)
	if got := worldText(t, restored); got != want {
		t.Errorf("restore after full-rebuild lineage diverges\n--- restored ---\n%s--- live ---\n%s",
			clip(got), clip(want))
	}
}

// TestRestoreFallsBackToPriorCheckpoint simulates a kill mid-checkpoint:
// the newest checkpoint file is torn, so restore steps down to the prior
// checkpoint + its WAL — which reconstructs the same world the torn
// checkpoint had captured.
func TestRestoreFallsBackToPriorCheckpoint(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{})
	if _, err := live.SaveSnapshot(); err != nil { // checkpoint 1
		t.Fatal(err)
	}
	editGenes(t, c, 5, "pre-kill edit")
	refresh(t, live, "LocusLink") // WAL record on checkpoint 1
	want := worldText(t, live)
	if _, err := live.SaveSnapshot(); err != nil { // checkpoint 2 (same world)
		t.Fatal(err)
	}

	// Tear checkpoint 2 as a crash mid-write would (the atomic rename
	// makes this nearly impossible in practice; belt and braces).
	path := filepath.Join(dir, "checkpoint-0000000000000002.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	restored := persistManager(t, c, Options{}, dir, PersistPolicy{})
	rr := mustRestore(t, restored)
	if rr.Seq != 1 || rr.Fallbacks != 1 || rr.WALReplayed != 1 {
		t.Fatalf("restore result %+v, want seq 1 with 1 fallback and 1 replayed record", rr)
	}
	if got := worldText(t, restored); got != want {
		t.Error("ladder restore diverges from the pre-kill world")
	}
	if fallbacks, restores := metric(restored, "annoda_restore_fallbacks_total"), metric(restored, "annoda_restores_total"); fallbacks != 1 || restores != 1 {
		t.Errorf("restore fallbacks = %d, restores = %d, want 1 and 1", fallbacks, restores)
	}
}

// TestRestoreRejectsUnknownPayloadVersion: a payload from a future codec
// revision passes the container's CRC but must still be rejected — and
// fall back, never panic.
func TestRestoreRejectsUnknownPayloadVersion(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{})
	res, err := live.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := worldText(t, live)

	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := st.ReadCheckpoint(res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), payload...)
	future[4]++ // payload version byte, after the 4-byte magic
	sec := st.Begin()
	if err := sec.WriteCheckpoint(res.Seq+1, future); err != nil {
		t.Fatal(err)
	}
	sec.End()
	st.Close()

	restored := persistManager(t, c, Options{}, dir, PersistPolicy{})
	rr := mustRestore(t, restored)
	if rr.Seq != res.Seq || rr.Fallbacks != 1 {
		t.Fatalf("restore result %+v, want fallback to seq %d", rr, res.Seq)
	}
	if !strings.Contains(rr.Reason, "version") {
		t.Errorf("fallback reason %q does not mention the version", rr.Reason)
	}
	if got := worldText(t, restored); got != want {
		t.Error("fallback restore diverges")
	}
}

// TestRestorePolicyMismatchFallsBack: a checkpoint fused under a different
// reconciliation policy must not be restored into a manager that would
// patch it under another policy.
func TestRestorePolicyMismatchFallsBack(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{Policy: fused.PolicyMajority}, dir, PersistPolicy{})
	if _, err := live.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	other := persistManager(t, c, Options{Policy: fused.PolicyUnion}, dir, PersistPolicy{})
	rr, err := other.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Restored {
		t.Fatal("restored a checkpoint fused under a different policy")
	}
	if !strings.Contains(rr.Reason, "policy") {
		t.Errorf("reason %q does not mention the policy", rr.Reason)
	}
	// Cold start still serves.
	if _, _, err := other.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSourceSetMismatchFallsBack: a checkpoint fused from a
// different source set (e.g. saved without the protein source, restored
// into a server that plugs it in) must not restore — it would silently
// serve a world missing whole sources.
func TestRestoreSourceSetMismatchFallsBack(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{})
	if _, err := live.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	// A manager over a subset of the sources (same global model).
	reg := wrapper.NewRegistry()
	for _, w := range live.reg.All()[:2] {
		if err := reg.Add(&trapSource{name: w.Name(), entity: w.EntityLabel()}); err != nil {
			t.Fatal(err)
		}
	}
	m := New(reg, live.gl, Options{})
	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := m.EnablePersistence(st, PersistPolicy{}); err != nil {
		t.Fatal(err)
	}
	rr, err := m.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Restored {
		t.Fatal("restored a checkpoint fused from a different source set")
	}
	if !strings.Contains(rr.Reason, "source") {
		t.Errorf("reason %q does not mention the source set", rr.Reason)
	}
}

// TestRestoreSurfacesTruncatedWAL: a torn WAL tail restores the valid
// prefix (the correct crash-recovery behaviour) but must be surfaced, not
// silently dropped — acknowledged refreshes are missing from the restored
// world.
func TestRestoreSurfacesTruncatedWAL(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{})
	want := worldText(t, live) // the checkpointed world, pre-refresh
	if _, err := live.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	editGenes(t, c, 3, "doomed wave")
	refresh(t, live, "LocusLink") // one WAL record

	// Tear the record's tail as a crash mid-append would.
	path := filepath.Join(dir, "wal-0000000000000001.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	restored := persistManager(t, c, Options{}, dir, PersistPolicy{})
	rr := mustRestore(t, restored)
	if !rr.WALTruncated {
		t.Error("torn WAL tail not surfaced in RestoreResult")
	}
	if rr.WALReplayed != 0 {
		t.Errorf("replayed %d records from a fully torn WAL", rr.WALReplayed)
	}
	if metric(restored, "annoda_persist_errors_total") == 0 {
		t.Error("torn WAL tail not counted under persist errors")
	}
	if got := worldText(t, restored); got != want {
		t.Error("restored world is not the checkpointed prefix world")
	}
}

// TestRestoreColdStart: an empty store restores nothing, errors nothing,
// and the manager cold-builds on first use.
func TestRestoreColdStart(t *testing.T) {
	c := corpus()
	m := persistManager(t, c, Options{}, t.TempDir(), PersistPolicy{})
	rr, err := m.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Restored || !rr.ColdStart {
		t.Fatalf("empty store: %+v", rr)
	}
	res, _, err := m.QueryString(snapshotQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() == 0 {
		t.Fatal("cold start serves nothing")
	}
}

// TestFlushSnapshot: flush writes only when the store lags the serving
// epoch.
func TestFlushSnapshot(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	m := persistManager(t, c, Options{}, dir, PersistPolicy{})
	// Epoch exists, nothing on disk yet → flush writes.
	if _, _, err := m.QueryString(snapshotQ); err != nil {
		t.Fatal(err)
	}
	res, saved, err := m.FlushSnapshot()
	if err != nil || !saved {
		t.Fatalf("first flush: saved=%v err=%v", saved, err)
	}
	if res.Seq != 1 {
		t.Fatalf("first flush wrote seq %d", res.Seq)
	}
	// Disk reflects the world → no-op.
	if _, saved, err := m.FlushSnapshot(); err != nil || saved {
		t.Fatalf("clean flush: saved=%v err=%v", saved, err)
	}
	// A refresh lands in the WAL, which also reflects the world → no-op.
	editGenes(t, c, 3, "flush wave")
	refresh(t, m, "LocusLink")
	if _, saved, err := m.FlushSnapshot(); err != nil || saved {
		t.Fatalf("post-WAL flush: saved=%v err=%v", saved, err)
	}
	// The flushed state restores.
	restored := persistManager(t, c, Options{}, dir, PersistPolicy{})
	mustRestore(t, restored)
	if got, want := worldText(t, restored), worldText(t, m); got != want {
		t.Error("flushed world diverges")
	}
}

// TestSnapshotInfo: the operational inspection view decodes the newest
// restorable checkpoint without a manager.
func TestSnapshotInfo(t *testing.T) {
	c := corpus()
	dir := t.TempDir()
	live := persistManager(t, c, Options{}, dir, PersistPolicy{})
	if _, err := live.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	editGenes(t, c, 3, "info wave")
	refresh(t, live, "LocusLink")

	st, err := snapstore.Open(dir, snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	info, err := SnapshotInfo(st)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Genes == 0 || info.Objects == 0 || info.PayloadBytes == 0 {
		t.Fatalf("info %+v", info)
	}
	if info.WALRecords != 1 {
		t.Errorf("info reports %d WAL records, want 1", info.WALRecords)
	}
	if len(info.Entities) == 0 {
		t.Error("info reports no source entities")
	}
	if info.Entities["LocusLink"] == 0 || info.Entities["GO"] == 0 {
		t.Errorf("per-source entity counts %v", info.Entities)
	}
}

// TestCheckpointCountedOnceInRegistry: a checkpoint's count and bytes live
// in the registry — with or without Options.Obs — and nowhere else.
func TestCheckpointCountedOnceInRegistry(t *testing.T) {
	c := corpus()
	for _, o := range []*obs.Obs{nil, obs.New(obs.Config{})} {
		m := persistManager(t, c, Options{Obs: o}, t.TempDir(), PersistPolicy{})
		res, err := m.SaveSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if n, b := metric(m, "annoda_checkpoints_written_total"), metric(m, "annoda_checkpoint_bytes_total"); n != 1 || b != int64(res.Bytes) {
			t.Errorf("obs=%v: %d checkpoints / %d bytes in the registry, want 1 / %d", o != nil, n, b, res.Bytes)
		}
		_, stats, err := m.QueryString(snapshotQ)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(stats.String(), "persist:") {
			t.Errorf("per-request Stats carries process-wide counters:\n%s", stats.String())
		}
	}
}
