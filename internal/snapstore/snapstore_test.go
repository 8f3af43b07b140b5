package snapstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// begin opens st's write side for the rest of the test.
func begin(t *testing.T, st *Store) *Section {
	t.Helper()
	sec := st.Begin()
	t.Cleanup(sec.End)
	return sec
}

func TestCheckpointRoundTrip(t *testing.T) {
	st := open(t, t.TempDir())
	sec := begin(t, st)
	payload := []byte("the integrated annotation world")
	if err := sec.WriteCheckpoint(1, payload); err != nil {
		t.Fatal(err)
	}
	seqs, err := st.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("Checkpoints() = %v, want [1]", seqs)
	}
	got, err := st.ReadCheckpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q", got)
	}
}

func TestWALRoundTrip(t *testing.T) {
	st := open(t, t.TempDir())
	sec := begin(t, st)
	if err := sec.WriteCheckpoint(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("delta one"), []byte("delta two"), {}, []byte("delta four")}
	for _, r := range recs {
		if err := sec.AppendWAL(r); err != nil {
			t.Fatal(err)
		}
	}
	n, bytesWritten := sec.WALStats()
	if n != len(recs) {
		t.Fatalf("WALStats records = %d, want %d", n, len(recs))
	}
	if bytesWritten == 0 {
		t.Fatal("WALStats bytes = 0")
	}
	got, truncated, err := st.ReadWAL(1)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("clean WAL reported truncated")
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadWAL returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], recs[i])
		}
	}
}

func TestAppendWithoutCheckpointFails(t *testing.T) {
	st := open(t, t.TempDir())
	sec := begin(t, st)
	if err := sec.AppendWAL([]byte("orphan")); err == nil {
		t.Fatal("AppendWAL without a checkpoint succeeded")
	}
}

func TestNewCheckpointResetsWAL(t *testing.T) {
	st := open(t, t.TempDir())
	sec := begin(t, st)
	if err := sec.WriteCheckpoint(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := sec.AppendWAL([]byte("old delta")); err != nil {
		t.Fatal(err)
	}
	if err := sec.WriteCheckpoint(2, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if n, _ := sec.WALStats(); n != 0 {
		t.Fatalf("WAL not reset after checkpoint: %d records", n)
	}
	recs, _, err := st.ReadWAL(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("new WAL has %d records, want 0", len(recs))
	}
	// The old checkpoint (and its WAL) survive as the fallback rung.
	if _, err := st.ReadCheckpoint(1); err != nil {
		t.Fatalf("previous checkpoint gone: %v", err)
	}
	old, _, err := st.ReadWAL(1)
	if err != nil || len(old) != 1 {
		t.Fatalf("previous WAL: %d records, err %v", len(old), err)
	}
}

func TestPruneKeepsLadder(t *testing.T) {
	st := open(t, t.TempDir())
	sec := begin(t, st)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := sec.WriteCheckpoint(seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
		if err := sec.AppendWAL([]byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := st.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != DefaultKeep || seqs[0] != 4 || seqs[1] != 5 {
		t.Fatalf("after pruning, Checkpoints() = %v, want [4 5]", seqs)
	}
	entries, _ := os.ReadDir(st.dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), walSuffix) &&
			e.Name() != walName(4) && e.Name() != walName(5) {
			t.Fatalf("stale WAL survived pruning: %s", e.Name())
		}
	}
}

func corrupt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestReadCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	sec := begin(t, st)
	payload := bytes.Repeat([]byte("annotation "), 100)
	if err := sec.WriteCheckpoint(7, payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName(7))

	t.Run("bit flip in payload", func(t *testing.T) {
		corrupt(t, path, checkpointHeaderSize+10)
		if _, err := st.ReadCheckpoint(7); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("corrupted payload read back: err=%v", err)
		}
		corrupt(t, path, checkpointHeaderSize+10) // restore
	})
	t.Run("truncated", func(t *testing.T) {
		data, _ := os.ReadFile(path)
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadCheckpoint(7); err == nil {
			t.Fatal("truncated checkpoint read back")
		}
		os.WriteFile(path, data, 0o644)
	})
	t.Run("unknown version", func(t *testing.T) {
		data, _ := os.ReadFile(path)
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:12], FormatVersion+1)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadCheckpoint(7); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("future-version checkpoint read back: err=%v", err)
		}
		os.WriteFile(path, data, 0o644)
	})
	t.Run("bad magic", func(t *testing.T) {
		corrupt(t, path, 0)
		if _, err := st.ReadCheckpoint(7); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad-magic checkpoint read back: err=%v", err)
		}
		corrupt(t, path, 0)
	})
	// Intact again after all the restorations.
	if got, err := st.ReadCheckpoint(7); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("restored checkpoint unreadable: %v", err)
	}
}

func TestWALTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	sec := begin(t, st)
	if err := sec.WriteCheckpoint(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"one", "two", "three"} {
		if err := sec.AppendWAL([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half of the last frame is missing.
	if err := os.WriteFile(path, data[:len(data)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := st.ReadWAL(1)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 2 || string(recs[0]) != "one" || string(recs[1]) != "two" {
		t.Fatalf("valid prefix = %q", recs)
	}
	// Re-opening for append truncates the torn tail so new records land
	// after the valid prefix.
	if err := sec.OpenWAL(1); err != nil {
		t.Fatal(err)
	}
	if n, _ := sec.WALStats(); n != 2 {
		t.Fatalf("reopened WAL reports %d records, want 2", n)
	}
	if err := sec.AppendWAL([]byte("four")); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err = st.ReadWAL(1)
	if err != nil || truncated {
		t.Fatalf("WAL after reopen+append: truncated=%v err=%v", truncated, err)
	}
	want := []string{"one", "two", "four"}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if string(recs[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
}

func TestWALBadCRCMidFileTruncates(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	sec := begin(t, st)
	if err := sec.WriteCheckpoint(1, []byte("base")); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"alpha", "beta", "gamma"} {
		if err := sec.AppendWAL([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte inside the second record's payload.
	frame1 := int64(walHeaderSize) + frameHeaderSize + 5
	corrupt(t, filepath.Join(dir, walName(1)), frame1+frameHeaderSize+1)
	recs, truncated, err := st.ReadWAL(1)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(recs) != 1 || string(recs[0]) != "alpha" {
		t.Fatalf("got truncated=%v recs=%q, want prefix [alpha]", truncated, recs)
	}
}

func TestMissingWALIsEmpty(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	sec := begin(t, st)
	if err := sec.WriteCheckpoint(3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, walName(3))); err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := st.ReadWAL(3)
	if err != nil || truncated || len(recs) != 0 {
		t.Fatalf("missing WAL: recs=%v truncated=%v err=%v", recs, truncated, err)
	}
	// OpenWAL recreates it.
	if err := sec.OpenWAL(3); err != nil {
		t.Fatal(err)
	}
	if err := sec.AppendWAL([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestTmpLeftoverIgnoredAndPruned(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	sec := begin(t, st)
	// A crash mid-WriteCheckpoint leaves only a temp file.
	stray := filepath.Join(dir, checkpointName(9)+tmpSuffix)
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, err := st.Checkpoints()
	if err != nil || len(seqs) != 0 {
		t.Fatalf("temp file surfaced as checkpoint: %v, %v", seqs, err)
	}
	if err := sec.WriteCheckpoint(1, []byte("real")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file not pruned: %v", err)
	}
}

// TestPruneFailureCountedAndSurfaced: a deletion the retention policy
// cannot perform (here: the prunable name is a non-empty directory, so
// os.Remove fails) must be counted, never silent, and the stale file must
// show up in StaleFiles until someone clears it.
func TestPruneFailureCountedAndSurfaced(t *testing.T) {
	dir := t.TempDir()
	st := open(t, dir)
	sec := begin(t, st)

	// Plant an undeletable obstacle under a prunable WAL name.
	obstacle := filepath.Join(dir, walName(1))
	if err := os.MkdirAll(filepath.Join(obstacle, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(obstacle, "pin", "f"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Three checkpoints with Keep=2 ⇒ pruning runs and must try (and
	// fail) to delete wal-…01.
	for seq := uint64(2); seq <= 4; seq++ {
		if err := sec.WriteCheckpoint(seq, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if st.PruneFailures() == 0 {
		t.Fatal("failed deletions were not counted")
	}
	stale, err := st.StaleFiles()
	if err != nil {
		t.Fatal(err)
	}
	if stale != 1 {
		t.Fatalf("StaleFiles = %d, want 1 (the undeletable WAL)", stale)
	}

	// A healthy store reports zero on both.
	st2 := open(t, t.TempDir())
	sec2 := begin(t, st2)
	if err := sec2.WriteCheckpoint(1, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if st2.PruneFailures() != 0 {
		t.Fatalf("healthy store counted %d prune failures", st2.PruneFailures())
	}
	if stale, _ := st2.StaleFiles(); stale != 0 {
		t.Fatalf("healthy store reports %d stale files", stale)
	}
}
