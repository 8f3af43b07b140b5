// Fixture for the criticalerr analyzer: the scoped errcheck over the
// calls whose dropped errors have shipped bugs in this repository.
package a

import (
	"context"
	"os"

	"repro/internal/mediator"
	"repro/internal/snapstore"
	"repro/internal/wire"
)

// Statement-dropped returns: the bug class.

func dropRemove(path string) {
	os.Remove(path) // want `dropped error return of os.Remove`
}

func dropRemoveAll(path string) {
	os.RemoveAll(path) // want `dropped error return of os.RemoveAll`
}

func dropClose(f *os.File) {
	f.Close() // want `dropped error return of \(\*os\.File\)\.Close`
}

func dropSync(f *os.File) {
	f.Sync() // want `dropped error return of \(\*os\.File\)\.Sync`
}

func dropAppendWAL(sec *snapstore.Section, rec []byte) {
	sec.AppendWAL(rec) // want `dropped error return of \(\*snapstore\.Section\)\.AppendWAL`
}

func dropFlush(e *wire.Encoder) {
	e.Flush() // want `dropped error return of \(\*wire\.Encoder\)\.Flush`
}

func dropProbe(m *mediator.Manager) {
	m.ProbeSource(context.Background(), "GO") // want `dropped error return of \(\*mediator\.Manager\)\.ProbeSource`
}

func goProbe(m *mediator.Manager) {
	go m.ProbeSource(context.Background(), "GO") // want `go statement drops the error return of \(\*mediator\.Manager\)\.ProbeSource`
}

// Deferring a write-path call drops its error just as surely.

func deferSync(f *os.File) {
	defer f.Sync() // want `deferred call drops the error return of \(\*os\.File\)\.Sync`
}

func deferFlush(e *wire.Encoder) {
	defer e.Flush() // want `deferred call drops the error return of \(\*wire\.Encoder\)\.Flush`
}

// Allowed shapes.

// Checking the error is the point.
func checkedRemove(path string) error {
	return os.Remove(path)
}

// Discarding explicitly is a visible decision.
func explicitDiscard(f *os.File) {
	_ = f.Close()
}

// Deferred best-effort cleanup of read handles and temp files is the
// established idiom.
func deferredCleanup(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	defer os.Remove(path)
	return nil
}

// A justified suppression is allowed and must carry a reason.
func suppressed(f *os.File) {
	//lint:ignore criticalerr existence probe only; the data was already fsync'd above
	f.Sync()
}
