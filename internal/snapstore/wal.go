package snapstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// This file implements the per-checkpoint delta WAL: a header followed by
// CRC-framed records. Appends go through a Section to the store's open WAL
// handle (established by WriteCheckpoint or OpenWAL); reads scan a file and
// stop at the first frame that fails its length or CRC check — a torn tail
// is the normal shape of a crash mid-append, and everything before it is
// intact by construction.

// startWAL creates (truncating) the WAL for checkpoint seq and keeps it
// open for appends.
func (sec *Section) startWAL(seq uint64) error {
	s := sec.s
	sec.closeWAL()
	header := make([]byte, walHeaderSize)
	copy(header, walMagic)
	binary.LittleEndian.PutUint32(header[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(header[12:20], seq)
	path := filepath.Join(s.dir, walName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapstore: %v", err)
	}
	if _, err := f.Write(header); err != nil {
		_ = f.Close() // the write error is the one to surface
		return fmt.Errorf("snapstore: %v", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one to surface
		return fmt.Errorf("snapstore: %v", err)
	}
	s.wal, s.walRecords, s.walBytes = f, 0, 0
	return nil
}

// AppendWAL appends one record to the current checkpoint's WAL. The record
// becomes visible to restore atomically: a partially written frame fails
// its CRC and is dropped as a torn tail.
func (sec *Section) AppendWAL(rec []byte) error {
	if len(rec) > maxFrame {
		return fmt.Errorf("snapstore: WAL record of %d bytes exceeds bound", len(rec))
	}
	s := sec.s
	if s.wal == nil {
		return fmt.Errorf("snapstore: no open WAL (write a checkpoint first)")
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, crcTable))
	// Frames are appended strictly sequentially, so the valid prefix ends
	// exactly at header + recorded bytes; a failed write rewinds to it so
	// a later successful append can never land after a torn frame (which
	// replay would treat as the end of the WAL, silently dropping the
	// acknowledged records behind it).
	start := int64(walHeaderSize) + s.walBytes
	if _, err := s.wal.Write(hdr[:]); err != nil {
		sec.rewindWAL(start)
		return fmt.Errorf("snapstore: %v", err)
	}
	if _, err := s.wal.Write(rec); err != nil {
		sec.rewindWAL(start)
		return fmt.Errorf("snapstore: %v", err)
	}
	if s.opts.Sync {
		if err := s.wal.Sync(); err != nil {
			// The frame is fully written but not durable; rewinding keeps
			// the invariant that a failed append leaves no trace — the
			// caller treats the record as not persisted, so the file must
			// agree after a crash.
			sec.rewindWAL(start)
			return fmt.Errorf("snapstore: %v", err)
		}
	}
	s.walRecords++
	s.walBytes += int64(frameHeaderSize + len(rec))
	return nil
}

// rewindWAL truncates the WAL back to the end of its valid prefix after a
// failed append. When even the rewind fails the WAL is poisoned — the
// handle is closed so every further append errors and the caller's
// checkpoint fallback re-establishes a clean lineage.
func (sec *Section) rewindWAL(off int64) {
	s := sec.s
	if s.wal == nil {
		return
	}
	if err := s.wal.Truncate(off); err != nil {
		_ = s.wal.Close() // poisoning the handle; the truncate failure already decided that
		s.wal = nil
		return
	}
	if _, err := s.wal.Seek(off, 0); err != nil {
		_ = s.wal.Close() // poisoning the handle; the seek failure already decided that
		s.wal = nil
	}
}

// WALStats reports how many records (and frame bytes) the open WAL holds —
// the inputs to the mediator's auto-checkpoint policy.
func (sec *Section) WALStats() (records int, bytes int64) {
	return sec.s.walRecords, sec.s.walBytes
}

// ReadWAL returns the valid records of checkpoint seq's WAL in append
// order. A missing file is an empty WAL (a crash between checkpoint write
// and WAL creation). truncated reports that a torn or corrupt tail was
// dropped; the returned prefix is still usable.
func (s *Store) ReadWAL(seq uint64) (recs [][]byte, truncated bool, err error) {
	data, err := os.ReadFile(filepath.Join(s.dir, walName(seq)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("snapstore: %v", err)
	}
	recs, _, truncated = scanWAL(data, seq)
	return recs, truncated, nil
}

// scanWAL parses a WAL image, returning the valid records, the byte length
// of the valid prefix, and whether anything after it was dropped. A bad
// header invalidates the whole file (zero records, validLen 0).
func scanWAL(data []byte, seq uint64) (recs [][]byte, validLen int64, truncated bool) {
	if len(data) < walHeaderSize ||
		string(data[:8]) != walMagic ||
		binary.LittleEndian.Uint32(data[8:12]) != FormatVersion ||
		binary.LittleEndian.Uint64(data[12:20]) != seq {
		return nil, 0, len(data) > 0
	}
	off := int64(walHeaderSize)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, false
		}
		if len(rest) < frameHeaderSize {
			return recs, off, true
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		want := binary.LittleEndian.Uint32(rest[4:8])
		if uint64(n) > maxFrame || uint64(len(rest)-frameHeaderSize) < uint64(n) {
			return recs, off, true
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(n)]
		if crc32.Checksum(payload, crcTable) != want {
			return recs, off, true
		}
		recs = append(recs, payload)
		off += int64(frameHeaderSize) + int64(n)
	}
}

// OpenWAL opens checkpoint seq's WAL for further appends, truncating any
// torn tail first so new frames never land after garbage. Restore calls it
// after successfully replaying, so the booted process keeps appending to
// the same WAL it restored from. A missing (or header-corrupt) WAL is
// recreated empty.
func (sec *Section) OpenWAL(seq uint64) error {
	s := sec.s
	path := filepath.Join(s.dir, walName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return sec.startWAL(seq)
		}
		return fmt.Errorf("snapstore: %v", err)
	}
	recs, validLen, _ := scanWAL(data, seq)
	if validLen == 0 {
		return sec.startWAL(seq) // header unusable; start over
	}
	sec.closeWAL()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("snapstore: %v", err)
	}
	if err := f.Truncate(validLen); err != nil {
		_ = f.Close() // the truncate error is the one to surface
		return fmt.Errorf("snapstore: %v", err)
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		_ = f.Close() // the seek error is the one to surface
		return fmt.Errorf("snapstore: %v", err)
	}
	s.wal, s.walRecords, s.walBytes = f, len(recs), validLen-walHeaderSize
	return nil
}
