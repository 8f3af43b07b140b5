package obs

import "time"

// This file is the one sanctioned home for wall-clock reads in production
// code: the nowalltime analyzer flags time.Now/Since/Until everywhere else,
// so every latency measurement in the repository flows through here. The
// wrappers are trivially inlinable — they cost nothing over the direct
// calls — and exist so the clock has exactly one door.

// Now returns the current wall-clock time.
func Now() time.Time { return time.Now() }

// Since returns the time elapsed since t.
func Since(t time.Time) time.Duration { return time.Since(t) }
