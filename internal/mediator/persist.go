package mediator

// Durable snapshot persistence: the mediator side of internal/snapstore.
//
// SaveSnapshot serializes the current fused-snapshot epoch into a
// checkpoint; RefreshSourceCtx appends each applied ChangeSet to the
// checkpoint's delta WAL (see write); LoadSnapshot walks the
// recovery ladder at boot — newest valid checkpoint, WAL replayed through
// the same patch code a live refresh uses, falling back to the
// next-older checkpoint and finally to a cold fetch+fuse. Auto-checkpoint
// policy (every N WAL records or M bytes) keeps replay time bounded under
// refresh churn.
//
// Every disk mutation happens in write (see writer.go), which publishes
// epochs too, so WAL order is the order deltas were applied in memory.

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

// PersistPolicy drives auto-checkpointing: the WAL is folded into a fresh
// checkpoint after EveryRecords records or DefaultPersistEveryBytes bytes,
// whichever comes first.
type PersistPolicy struct {
	// EveryRecords checkpoints after this many WAL records (<= 0 selects
	// DefaultPersistEveryRecords).
	EveryRecords int
}

const (
	// DefaultPersistEveryRecords bounds WAL length in records: replaying a
	// record costs about as much as applying the original delta, so this
	// caps warm-restart replay work.
	DefaultPersistEveryRecords = 64
	// DefaultPersistEveryBytes bounds WAL size on disk: a checkpoint is
	// written once the WAL reaches it.
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
	m.store = st
	m.persistPol = pol
	// Continue an existing store's sequence even when the caller never
	// restores (e.g. `annoda snapshot save` over a primed dir): the next
	// checkpoint must land after the newest one, not overwrite seq 1.
	if seqs, err := st.Checkpoints(); err == nil && len(seqs) > 0 {
		m.persistSeq = seqs[len(seqs)-1]
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
	w, err := written{}, ErrPersistenceDisabled
	if m.store != nil {
		w, err = m.write(func(cur *snapshot) (publication, error) {
			// The epoch pinEpoch would serve, built first when there is none.
			p, err := m.build(cur)
			if p.checkpoint = cur; p.next != nil {
				p.checkpoint = p.next
			}
			return p, err
		})
	}
	op.tr.Span(obs.StageCheckpoint, op.t0)
	m.endOp(op, m.opCkptDur, nil, err)
	return w.saved, err
}

// FlushSnapshot writes a final checkpoint if the disk state lags the
// current epoch (graceful-shutdown hook). saved reports whether anything
// was written; a clean store is a no-op.
func (m *Manager) FlushSnapshot() (res *SaveResult, saved bool, err error) {
	if m.store == nil {
		return nil, false, nil
	}
	w, err := m.write(func(cur *snapshot) (publication, error) {
		if cur == nil || m.diskEpoch == cur {
			// Nothing to flush: no world, or the store already reflects the
			// serving epoch (via its checkpoint or a WAL record).
			return publication{}, nil
		}
		return publication{checkpoint: cur}, nil
	})
	if err != nil {
		return nil, false, err
	}
	return w.saved, w.saved != nil, nil
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
	m.write(func(*snapshot) (publication, error) {
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
				// Restoring the valid prefix is the right call (that is what
				// a crash mid-append leaves), but dropped acknowledged
				// records must not pass silently.
				rr.WALTruncated = true
				m.persistErrors.Inc()
			}
			ep.fp = m.sourceFingerprint()
			rr.Restored, rr.Seq, rr.WALReplayed = true, seq, replayed
			info := ep.w.Info()
			rr.Objects, rr.Genes = info.Objects, info.Genes
			return publication{next: ep, restoredSeq: seq, setFP: true, fp: ep.fp}, nil
		}
		return publication{}, nil
	})
	rr.Took, rr.ColdStart = obs.Since(start), !rr.Restored
	if rr.ColdStart && len(seqs) == 0 {
		rr.Reason = "no checkpoint on disk"
	} else if rr.Restored {
		tr.SpanDur(obs.StageRestore, start, rr.Took, fmt.Sprintf("seq %d, %d WAL records", rr.Seq, rr.WALReplayed))
		m.restores.Inc()
		m.walReplayed.Add(uint64(rr.WALReplayed))
	}
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
	stats.conflicts = w.Conflicts()
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
