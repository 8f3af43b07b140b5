// Package snapstore is ANNODA's durable snapshot store: crash-safe
// persistence for the mediator's fused annotation world, so a process
// restart warm-starts from disk instead of refetching and re-fusing every
// source (warehouse-style systems such as TaSer persist their integrated
// index for exactly this reason).
//
// The store keeps two kinds of files in one directory:
//
//   - Checkpoints (checkpoint-<seq>.ckpt): a full serialized snapshot
//     epoch, written via temp file + fsync + atomic rename so a crash
//     mid-write can never surface a torn checkpoint under the real name.
//     Each file carries a magic, a format version, its sequence number,
//     a length prefix and a CRC32-C of the payload; anything that fails
//     those checks is rejected at read time.
//
//   - A per-checkpoint delta WAL (wal-<seq>.wal): every incremental source
//     refresh appends one CRC-framed ChangeSet record, so small refreshes
//     are durable without rewriting the world. Restore replays the WAL on
//     top of its base checkpoint; a torn tail frame (crash mid-append) is
//     detected by its CRC/length and dropped.
//
// Recovery ladder: restore decodes the newest checkpoint that validates,
// falling back to the next-older one (the store retains the previous
// checkpoint for exactly this) and finally to a cold fetch+fuse. The
// ladder lives in the consumer (internal/mediator), which owns payload
// decoding; this package validates containers and frames.
//
// The store is payload-agnostic: payloads and WAL records are opaque byte
// slices. The mediator encodes fuse state with the oem binary codec and
// WAL records with the delta ChangeSet codec.
package snapstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	checkpointMagic = "ANNOCKP1"
	walMagic        = "ANNOWAL1"

	// FormatVersion is the container format version; files written by a
	// future revision are rejected, never misread.
	FormatVersion = 1

	// checkpointHeaderSize: magic(8) + version(4) + seq(8) + payloadLen(8)
	// + crc(4).
	checkpointHeaderSize = 8 + 4 + 8 + 8 + 4
	// walHeaderSize: magic(8) + version(4) + seq(8).
	walHeaderSize = 8 + 4 + 8
	// frameHeaderSize: payloadLen(4) + crc(4).
	frameHeaderSize = 4 + 4

	// maxFrame bounds one WAL record; a corrupt length prefix must fail
	// fast, not provoke a giant allocation.
	maxFrame = 1 << 30

	// DefaultKeep is how many checkpoints the store retains: the newest
	// plus one fallback rung for the recovery ladder.
	DefaultKeep = 2

	checkpointSuffix = ".ckpt"
	walSuffix        = ".wal"
	tmpSuffix        = ".tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoCheckpoint reports an empty store (no checkpoint files at all).
var ErrNoCheckpoint = errors.New("snapstore: no checkpoint")

// Options tunes a Store.
type Options struct {
	// Sync fsyncs the WAL after every append. Off by default: checkpoints
	// are always synced before their atomic rename (a torn checkpoint is
	// unacceptable), but losing the last few WAL records to a power cut
	// only costs re-refreshing — the CRC framing keeps what survives
	// consistent.
	Sync bool
	// Keep is how many checkpoints to retain (0 selects DefaultKeep).
	Keep int
}

// Store is a checkpoint + delta-WAL store rooted at one directory. Its
// read side (Checkpoints, ReadCheckpoint, ReadWAL) is safe for concurrent
// use; everything that writes goes through a Section.
type Store struct {
	dir  string
	opts Options

	// mu is held for the life of a Section and guards the open WAL.
	mu         sync.Mutex
	wal        *os.File
	walRecords int
	walBytes   int64

	// pruneFailures counts deletions (retention pruning, temp cleanup)
	// that failed for a reason other than the file already being gone. A
	// store that cannot delete re-accumulates stale checkpoints and WALs
	// without bound, so the failure is counted and surfaced instead of
	// passing silently; warnOnce keeps the log to one WARN line.
	pruneFailures atomic.Int64
	warnOnce      sync.Once
}

// Open creates (if needed) and opens a store directory.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Keep <= 0 {
		opts.Keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %v", err)
	}
	return &Store{dir: dir, opts: opts}, nil
}

// Close releases the open WAL file, if any.
func (s *Store) Close() error {
	sec := s.Begin()
	defer sec.End()
	return sec.closeWAL()
}

// Section is the store's write side: checkpoint writes and WAL appends. One
// exists only between Begin and End, while the store's mutex is held, so a
// writer that holds one owns the WAL's order and nothing else can reach it.
type Section struct{ s *Store }

// Begin locks the store and returns its write side. Call End to release it.
func (s *Store) Begin() *Section {
	s.mu.Lock()
	return &Section{s}
}

// End releases the store. The Section is dead afterwards: any further use
// panics instead of writing unlocked.
func (sec *Section) End() {
	s := sec.s
	sec.s = nil
	s.mu.Unlock()
}

func (sec *Section) closeWAL() error {
	s := sec.s
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal, s.walRecords, s.walBytes = nil, 0, 0
	return err
}

func checkpointName(seq uint64) string {
	return fmt.Sprintf("checkpoint-%016x%s", seq, checkpointSuffix)
}

func walName(seq uint64) string {
	return fmt.Sprintf("wal-%016x%s", seq, walSuffix)
}

// parseSeq extracts the sequence number from a store filename of the form
// prefix-<hex>suffix; ok is false for names that are not the store's.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 16, 64)
	return seq, err == nil
}

// Checkpoints lists the sequence numbers of the checkpoint files present,
// ascending. Presence says nothing about validity — ReadCheckpoint decides
// that, which is what the recovery ladder iterates over.
func (s *Store) Checkpoints() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %v", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "checkpoint-", checkpointSuffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// ReadCheckpoint reads and validates checkpoint seq, returning its payload.
// Every failure mode — truncation, bad magic, unknown version, length
// mismatch, CRC mismatch — is an error the recovery ladder treats as "try
// the next-older checkpoint".
func (s *Store) ReadCheckpoint(seq uint64) ([]byte, error) {
	path := filepath.Join(s.dir, checkpointName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %v", err)
	}
	if len(data) < checkpointHeaderSize {
		return nil, fmt.Errorf("snapstore: checkpoint %d truncated (%d bytes)", seq, len(data))
	}
	if string(data[:8]) != checkpointMagic {
		return nil, fmt.Errorf("snapstore: checkpoint %d has bad magic %q", seq, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("snapstore: checkpoint %d has unknown format version %d (have %d)", seq, v, FormatVersion)
	}
	if fileSeq := binary.LittleEndian.Uint64(data[12:20]); fileSeq != seq {
		return nil, fmt.Errorf("snapstore: checkpoint %d claims sequence %d", seq, fileSeq)
	}
	plen := binary.LittleEndian.Uint64(data[20:28])
	if plen != uint64(len(data)-checkpointHeaderSize) {
		return nil, fmt.Errorf("snapstore: checkpoint %d payload length %d does not match file (%d bytes after header)",
			seq, plen, len(data)-checkpointHeaderSize)
	}
	want := binary.LittleEndian.Uint32(data[28:32])
	payload := data[checkpointHeaderSize:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("snapstore: checkpoint %d CRC mismatch (stored %08x, computed %08x)", seq, want, got)
	}
	return payload, nil
}

// WriteCheckpoint atomically persists payload as checkpoint seq, opens a
// fresh empty WAL for it, and prunes checkpoints older than the retention
// window (plus their WALs). On return the checkpoint is durable: the file
// is fsynced before the rename and the directory after it.
func (sec *Section) WriteCheckpoint(seq uint64, payload []byte) error {
	s := sec.s
	header := make([]byte, checkpointHeaderSize)
	copy(header, checkpointMagic)
	binary.LittleEndian.PutUint32(header[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(header[12:20], seq)
	binary.LittleEndian.PutUint64(header[20:28], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[28:32], crc32.Checksum(payload, crcTable))

	final := filepath.Join(s.dir, checkpointName(seq))
	tmp := final + tmpSuffix
	if err := writeFileSynced(tmp, header, payload); err != nil {
		s.removeCounted(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		s.removeCounted(tmp)
		return fmt.Errorf("snapstore: %v", err)
	}
	syncDir(s.dir)

	if err := sec.startWAL(seq); err != nil {
		return err
	}
	sec.prune()
	return nil
}

func writeFileSynced(path string, chunks ...[]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapstore: %v", err)
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			_ = f.Close() // the write error is the one to surface
			return fmt.Errorf("snapstore: %v", err)
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one to surface
		return fmt.Errorf("snapstore: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapstore: %v", err)
	}
	return nil
}

// syncDir makes a rename durable. Best-effort: some filesystems refuse to
// fsync directories, and the rename itself is already atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync() // best-effort by contract (see doc comment)
		_ = d.Close()
	}
}

// prune removes checkpoints beyond the retention window, their WALs,
// orphaned WALs (no base checkpoint) and leftover temp files.
func (sec *Section) prune() {
	s := sec.s
	seqs, err := s.Checkpoints()
	if err != nil {
		return
	}
	keep := make(map[uint64]bool, s.opts.Keep)
	for i := len(seqs) - 1; i >= 0 && len(keep) < s.opts.Keep; i-- {
		keep[seqs[i]] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			s.removeCounted(filepath.Join(s.dir, name))
		default:
			seq, ok := parseSeq(name, "checkpoint-", checkpointSuffix)
			if !ok {
				seq, ok = parseSeq(name, "wal-", walSuffix)
			}
			if ok && !keep[seq] {
				s.removeCounted(filepath.Join(s.dir, name))
			}
		}
	}
}

// removeCounted deletes a file the retention policy says must go. A
// failure (other than the file already being gone) is counted — see
// PruneFailures — and logged once at WARN.
func (s *Store) removeCounted(path string) {
	err := os.Remove(path)
	if err == nil || os.IsNotExist(err) {
		return
	}
	s.pruneFailures.Add(1)
	s.warnOnce.Do(func() {
		log.Printf("WARN: snapstore: prune/cleanup failed (counted from here on, see PruneFailures): %v", err)
	})
}

// PruneFailures reports how many prune/cleanup deletions have failed over
// this store's lifetime. Nonzero means stale checkpoints, WALs or temp
// files are accumulating in the store directory.
func (s *Store) PruneFailures() int64 { return s.pruneFailures.Load() }

// StaleFiles counts files in the store directory that pruning should have
// removed: leftover temp files plus checkpoint/WAL files outside the
// retention window. A count that stays nonzero across checkpoints means
// cleanup is failing persistently (see PruneFailures); unlike the
// counter, it also surfaces failures from previous processes.
func (s *Store) StaleFiles() (int, error) {
	seqs, err := s.Checkpoints()
	if err != nil {
		return 0, err
	}
	keep := make(map[uint64]bool, s.opts.Keep)
	for i := len(seqs) - 1; i >= 0 && len(keep) < s.opts.Keep; i-- {
		keep[seqs[i]] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("snapstore: %v", err)
	}
	stale := 0
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			stale++
			continue
		}
		seq, ok := parseSeq(name, "checkpoint-", checkpointSuffix)
		if !ok {
			seq, ok = parseSeq(name, "wal-", walSuffix)
		}
		if ok && !keep[seq] {
			stale++
		}
	}
	return stale, nil
}
