package mediator

// Durable snapshot persistence: the mediator side of internal/snapstore.
//
// SaveSnapshot serializes the current fused-snapshot epoch into a
// checkpoint; RefreshSourceCtx appends each applied ChangeSet to the
// checkpoint's delta WAL (see persistDeltaLocked); LoadSnapshot walks the
// recovery ladder at boot — newest valid checkpoint, WAL replayed through
// the same patch code a live refresh uses, falling back to the
// next-older checkpoint and finally to a cold fetch+fuse. Auto-checkpoint
// policy (every N WAL records or M bytes) keeps replay time bounded under
// refresh churn.
//
// Writer ordering: every disk mutation happens under epochMu, the same
// lock that serializes epoch publication, so the WAL's record order always
// matches the order deltas were applied in memory — replay cannot
// double-apply or reorder. Persistence failures never fail the in-memory
// operation that triggered them; they are counted
// (annoda_persist_errors_total) and the world keeps serving.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/delta"
	"repro/internal/fused"
	"repro/internal/obs"
	"repro/internal/snapstore"
)

// PersistPolicy drives auto-checkpointing: after either bound is crossed
// the WAL is folded into a fresh checkpoint. Zero values select the
// defaults.
type PersistPolicy struct {
	// EveryRecords checkpoints after this many WAL records (<= 0 selects
	// DefaultPersistEveryRecords).
	EveryRecords int
	// EveryBytes checkpoints after this many WAL bytes (<= 0 selects
	// DefaultPersistEveryBytes).
	EveryBytes int64
}

const (
	// DefaultPersistEveryRecords bounds WAL length in records: replaying a
	// record costs about as much as applying the original delta, so this
	// caps warm-restart replay work.
	DefaultPersistEveryRecords = 64
	// DefaultPersistEveryBytes bounds WAL size on disk.
	DefaultPersistEveryBytes = 8 << 20
)

// EnablePersistence attaches a snapshot store and auto-checkpoint policy.
// It requires the result cache (and with it the epoch infrastructure):
// with DisableCache there is no shared fused snapshot to persist. Call it
// before serving; it is not synchronized against in-flight queries.
func (m *Manager) EnablePersistence(st *snapstore.Store, pol PersistPolicy) error {
	if m.cache == nil {
		return errors.New("mediator: persistence requires the result cache (snapshot epochs); remove DisableCache")
	}
	if pol.EveryRecords <= 0 {
		pol.EveryRecords = DefaultPersistEveryRecords
	}
	if pol.EveryBytes <= 0 {
		pol.EveryBytes = DefaultPersistEveryBytes
	}
	m.store = st
	m.persistPol = pol
	// Continue an existing store's sequence even when the caller never
	// restores (e.g. `annoda snapshot save` over a primed dir): the next
	// checkpoint must land after the newest one, not overwrite seq 1.
	if seqs, err := st.Checkpoints(); err == nil && len(seqs) > 0 {
		m.persistSeq.Store(seqs[len(seqs)-1])
	}
	return nil
}

// ErrPersistenceDisabled is returned by the snapshot operations of a manager
// with no store attached (see EnablePersistence).
var ErrPersistenceDisabled = errors.New("mediator: persistence not enabled")

// SaveResult reports one written checkpoint.
type SaveResult struct {
	Seq   uint64
	Bytes int
	Took  time.Duration
}

// SaveSnapshot writes a checkpoint of the current fused-snapshot epoch,
// building the epoch first when none exists. The previous checkpoint is
// retained as the recovery ladder's fallback rung; the WAL restarts empty.
func (m *Manager) SaveSnapshot() (*SaveResult, error) {
	return m.SaveSnapshotCtx(context.Background())
}

// SaveSnapshotCtx is SaveSnapshot recording into the request trace carried
// by ctx (or a fresh one when observability is on and ctx has none).
func (m *Manager) SaveSnapshotCtx(ctx context.Context) (*SaveResult, error) {
	op := m.beginOp(ctx, "checkpoint", "")
	res, err := m.saveSnapshot()
	op.tr.Span(obs.StageCheckpoint, op.t0)
	m.endOp(op, m.opCkptDur, nil, err)
	return res, err
}

func (m *Manager) saveSnapshot() (*SaveResult, error) {
	if m.store == nil {
		return nil, ErrPersistenceDisabled
	}
	if _, _, err := m.pinEpoch(); err != nil {
		return nil, err
	}
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	ep := m.epoch.Load()
	if ep == nil {
		// pinEpoch built one, but a concurrent refresh retired it before we
		// took the lock; rare enough that asking the caller to retry beats
		// looping here with the writer lock held.
		return nil, errors.New("mediator: no epoch to checkpoint (concurrent refresh retired it; retry)")
	}
	return m.saveLocked(ep)
}

// saveLocked writes ep as the next checkpoint. epochMu must be held: the
// checkpoint and the fresh WAL it opens must describe exactly one
// publication point, or replay would double-apply.
func (m *Manager) saveLocked(ep *snapshot) (*SaveResult, error) {
	start := obs.Now()
	payload, err := ep.w.Encode(ep.fp, buildStats(ep.stats))
	if err != nil {
		m.persistErrors.Inc()
		return nil, err
	}
	seq := m.persistSeq.Load() + 1
	if err := m.store.WriteCheckpoint(seq, payload); err != nil {
		m.persistErrors.Inc()
		return nil, err
	}
	m.persistSeq.Store(seq)
	m.diskEpoch.Store(ep)
	m.checkpoints.Inc()
	m.checkpointBytes.Add(uint64(len(payload)))
	took := obs.Since(start)
	if m.o != nil {
		m.o.M.CkptDur.Observe(took)
	}
	return &SaveResult{Seq: seq, Bytes: len(payload), Took: took}, nil
}

// persistDeltaLocked makes one applied ChangeSet durable: encode, append
// to the WAL, and fold into a fresh checkpoint when the policy's bounds
// are crossed. epochMu must be held (RefreshSourceCtx calls it right after
// publishing the patched epoch). Failures are absorbed: the in-memory
// refresh already succeeded, so the worst case is a disk state that lags
// by one delta.
//
// cur is the epoch the delta was applied to. A WAL record is only valid
// when the store's checkpoint+WAL reconstructs exactly cur — otherwise
// replay would apply the delta to a different base world. Whenever the
// lineage broke (no checkpoint yet; a full-rebuild or lazily rebuilt
// epoch that never reached the store; an earlier append failure), the
// whole published world is checkpointed instead of logging a delta
// against a base it does not have.
func (m *Manager) persistDeltaLocked(cs *delta.ChangeSet, cur, published *snapshot, tr *obs.Trace) {
	if m.store == nil {
		return
	}
	if m.persistSeq.Load() == 0 || m.diskEpoch.Load() != cur {
		// saveLocked counts its own failures.
		m.saveLocked(published)
		return
	}
	start := obs.Now()
	var buf bytes.Buffer
	if err := delta.EncodeChangeSet(&buf, cs); err != nil {
		m.persistErrors.Inc()
		return
	}
	if err := m.store.AppendWAL(buf.Bytes()); err != nil {
		m.persistErrors.Inc()
		return
	}
	m.walAppended.Inc()
	m.walBytes.Add(uint64(buf.Len()))
	d := obs.Since(start)
	tr.SpanDur(obs.StageWALAppend, start, d, "")
	if m.o != nil {
		m.o.M.WALDur.Observe(d)
	}
	m.diskEpoch.Store(published)
	if recs, bytes := m.store.WALStats(); recs >= m.persistPol.EveryRecords || bytes >= m.persistPol.EveryBytes {
		m.saveLocked(published) // counts its own failures
	}
}

// FlushSnapshot writes a final checkpoint if the disk state lags the
// current epoch (graceful-shutdown hook). saved reports whether anything
// was written; a clean store is a no-op.
func (m *Manager) FlushSnapshot() (res *SaveResult, saved bool, err error) {
	if m.store == nil {
		return nil, false, nil
	}
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	ep := m.epoch.Load()
	if ep == nil || m.diskEpoch.Load() == ep {
		// Nothing to flush: no world, or the store already reflects the
		// serving epoch (via its checkpoint or a WAL record).
		return nil, false, nil
	}
	r, serr := m.saveLocked(ep)
	if serr != nil {
		return nil, false, serr
	}
	return r, true, nil
}

// RestoreResult reports what LoadSnapshot did.
type RestoreResult struct {
	// Restored is true when a checkpoint (plus WAL) was brought back to
	// life and published as the serving epoch.
	Restored bool
	// Seq is the restored checkpoint's sequence number.
	Seq uint64
	// WALReplayed is how many delta records were replayed on top of it.
	WALReplayed int
	// Fallbacks counts checkpoints skipped on the way down the recovery
	// ladder (corrupt, truncated, undecodable, or unreplayable).
	Fallbacks int
	// WALTruncated reports that the restored checkpoint's WAL carried a
	// torn or corrupt tail that was dropped: the restore is consistent,
	// but refreshes acknowledged after the last valid record are absent
	// (also counted under annoda_persist_errors_total).
	WALTruncated bool
	// ColdStart is true when no usable checkpoint existed; the manager
	// will fetch and fuse on first use, exactly as without persistence.
	ColdStart bool
	// Reason explains the last fallback (or the cold start).
	Reason string
	// Objects is the restored fused graph's object count.
	Objects int
	// Genes is the restored fused gene count.
	Genes int
	Took  time.Duration
}

// LoadSnapshot restores the fused world from disk: the newest checkpoint
// that validates and decodes is patched forward through its delta WAL
// (each record runs the exact apply path a live RefreshSourceCtx uses) and
// published as the serving epoch — no wrapper fetch, no fusion. Corruption
// at any level steps down the recovery ladder; when no rung holds, the
// result reports a cold start and the manager behaves as if persistence
// had just been enabled. The restored epoch is stamped with the *current*
// source fingerprint: the checkpoint is trusted as the integrated view of
// the sources as found at boot (refreshes that never reached the store
// are caught up by the next RefreshSourceCtx).
func (m *Manager) LoadSnapshot() (*RestoreResult, error) {
	return m.LoadSnapshotCtx(context.Background())
}

// LoadSnapshotCtx is LoadSnapshot recording into the request trace carried
// by ctx (or a fresh one when observability is on and ctx has none).
func (m *Manager) LoadSnapshotCtx(ctx context.Context) (*RestoreResult, error) {
	op := m.beginOp(ctx, "restore", "")
	rr, err := m.loadSnapshot(op.tr)
	m.endOp(op, m.opRestoreDur, nil, err)
	return rr, err
}

func (m *Manager) loadSnapshot(tr *obs.Trace) (*RestoreResult, error) {
	if m.store == nil {
		return nil, ErrPersistenceDisabled
	}
	start := obs.Now()
	rr := &RestoreResult{}
	seqs, err := m.store.Checkpoints()
	if err != nil {
		return nil, err
	}
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		ep, replayed, truncated, err := m.restoreOne(seq)
		if err != nil {
			rr.Fallbacks++
			rr.Reason = err.Error()
			m.restoreFallbacks.Inc()
			continue
		}
		if truncated {
			// Restoring the valid prefix is the right call (that is what a
			// crash mid-append leaves), but dropped acknowledged records
			// must not pass silently.
			rr.WALTruncated = true
			m.persistErrors.Inc()
		}
		fp := m.sourceFingerprint()
		ep.fp = fp
		m.publishLocked(ep)
		m.lastFP.Store(fp)
		m.persistSeq.Store(seq)
		m.diskEpoch.Store(ep)
		if err := m.store.OpenWAL(seq); err != nil {
			m.persistErrors.Inc()
		}
		rr.Restored = true
		rr.Seq = seq
		rr.WALReplayed = replayed
		info := ep.w.Info()
		rr.Objects = info.Objects
		rr.Genes = info.Genes
		rr.Took = obs.Since(start)
		tr.SpanDur(obs.StageRestore, start, rr.Took,
			fmt.Sprintf("seq %d, %d WAL records", seq, replayed))
		m.restores.Inc()
		m.walReplayed.Add(uint64(replayed))
		return rr, nil
	}
	rr.ColdStart = true
	if len(seqs) == 0 {
		rr.Reason = "no checkpoint on disk"
	}
	rr.Took = obs.Since(start)
	return rr, nil
}

// restoreOne decodes checkpoint seq and replays its WAL, returning the
// epoch ready to publish. Any failure leaves the manager untouched — the
// half-restored state is garbage-collected and the ladder steps down.
// truncated reports that a torn or header-corrupt WAL tail was dropped
// (the valid prefix still restores — that is the normal shape of a crash
// mid-append — but the caller surfaces it).
func (m *Manager) restoreOne(seq uint64) (ep *snapshot, replayed int, truncated bool, err error) {
	payload, err := m.store.ReadCheckpoint(seq)
	if err != nil {
		return nil, 0, false, err
	}
	dec, err := fused.Decode(payload)
	if err != nil {
		return nil, 0, false, err
	}
	if dec.Policy() != m.opts.Policy {
		return nil, 0, false, fmt.Errorf("mediator: checkpoint %d was fused under policy %v, manager runs %v",
			seq, dec.Policy(), m.opts.Policy)
	}
	// The checkpoint must describe this manager's source set: priority is
	// recorded from the registry at fusion time, so a name-set mismatch
	// means the store was primed under a different configuration (e.g. a
	// protein-less CLI save restored into a server that plugs ProtDB in) —
	// restoring it would silently serve a world missing whole sources.
	names, covered := m.reg.Names(), dec.Sources()
	if len(covered) != len(names) {
		return nil, 0, false, fmt.Errorf("mediator: checkpoint %d covers %d sources, manager has %d registered",
			seq, len(covered), len(names))
	}
	for _, n := range names {
		if !slices.Contains(covered, n) {
			return nil, 0, false, fmt.Errorf("mediator: checkpoint %d does not cover registered source %q", seq, n)
		}
	}
	recs, truncated, err := m.store.ReadWAL(seq)
	if err != nil {
		return nil, 0, false, err
	}
	stats := epochStats(dec.Stats)
	for _, rec := range recs {
		cs, err := delta.DecodeChangeSet(bytes.NewReader(rec))
		if err != nil {
			return nil, 0, truncated, fmt.Errorf("mediator: WAL record %d: %v", replayed, err)
		}
		mp := m.gl.MappingFor(cs.Source)
		if mp == nil {
			return nil, 0, truncated, fmt.Errorf("mediator: WAL record %d refreshes unmapped source %q", replayed, cs.Source)
		}
		if err := dec.Apply(cs, mp); err != nil {
			return nil, 0, truncated, fmt.Errorf("mediator: WAL record %d: %v", replayed, err)
		}
		stats.patched(mp.Source, cs.Total)
		replayed++
	}
	w := dec.Seal()
	stats.Conflicts = w.Conflicts()
	return &snapshot{w: w, stats: stats, fp: dec.FP}, replayed, truncated, nil
}

// buildStats is the part of an epoch's stats its checkpoint records.
func buildStats(s *Stats) fused.BuildStats {
	return fused.BuildStats{
		SourcesQueried: s.SourcesQueried, SourcesPruned: s.SourcesPruned,
		Fetched: s.Fetched, Kept: s.Kept,
		PushdownUsed: s.PushdownUsed, Parallel: s.Parallel, PushdownFallbacks: s.PushdownFallbacks,
		FetchTime: s.FetchTime, FuseTime: s.FuseTime,
	}
}

// epochStats is buildStats' inverse: a restored epoch's stats, before the
// world's conflicts are added.
func epochStats(b fused.BuildStats) *Stats {
	return &Stats{
		SourcesQueried: b.SourcesQueried, SourcesPruned: b.SourcesPruned,
		Fetched: b.Fetched, Kept: b.Kept,
		PushdownUsed: b.PushdownUsed, Parallel: b.Parallel, PushdownFallbacks: b.PushdownFallbacks,
		FetchTime: b.FetchTime, FuseTime: b.FuseTime,
	}
}

// SnapshotFileInfo describes the newest restorable checkpoint of a store —
// the `annoda snapshot info` operational view.
type SnapshotFileInfo struct {
	Seq         uint64
	Fingerprint uint64
	Policy      fused.Policy
	Objects     int
	Genes       int
	// Entities counts resident source entities by source name (gene parts
	// and link-concept entities combined).
	Entities map[string]int
	// Conflicts is the recorded reconciliation-conflict count.
	Conflicts int
	// PayloadBytes is the checkpoint payload size.
	PayloadBytes int
	// WALRecords is how many valid delta records await replay on top;
	// WALTruncated reports a torn tail that restore would drop.
	WALRecords   int
	WALTruncated bool
	// Skipped counts newer checkpoints that failed validation or decode.
	Skipped int
	// StaleFiles counts files retention should have removed but which are
	// still present (failed prunes, leftover temp files) — possibly from
	// earlier processes.
	StaleFiles int
}

// SnapshotInfo inspects a store without a Manager: it walks the recovery
// ladder exactly like LoadSnapshot but stops at decoding, so operators can
// see what a warm restart would restore.
func SnapshotInfo(st *snapstore.Store) (*SnapshotFileInfo, error) {
	seqs, err := st.Checkpoints()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, snapstore.ErrNoCheckpoint
	}
	skipped := 0
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		payload, err := st.ReadCheckpoint(seq)
		if err != nil {
			skipped++
			continue
		}
		dec, err := fused.Decode(payload)
		if err != nil {
			skipped++
			continue
		}
		fp, w := dec.FP, dec.Seal()
		wi := w.Info()
		info := &SnapshotFileInfo{
			Seq:          seq,
			Fingerprint:  fp,
			Policy:       w.Policy(),
			Objects:      wi.Objects,
			Genes:        wi.Genes,
			Entities:     wi.Entities,
			Conflicts:    wi.Conflicts,
			PayloadBytes: len(payload),
			Skipped:      skipped,
		}
		recs, truncated, err := st.ReadWAL(seq)
		if err == nil {
			info.WALRecords = len(recs)
			info.WALTruncated = truncated
		}
		if stale, err := st.StaleFiles(); err == nil {
			info.StaleFiles = stale
		}
		return info, nil
	}
	return nil, fmt.Errorf("mediator: none of %d checkpoints is restorable", len(seqs))
}
