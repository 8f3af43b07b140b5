// Quickstart: load the default corpus, assemble ANNODA, and run the
// paper's running example — "find LocusLink genes annotated with some GO
// function but not associated with an OMIM disease".
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/annoda"
)

func main() {
	// A deterministic synthetic corpus stands in for the 2004-era public
	// LocusLink/GO/OMIM databases (see DESIGN.md, substitution record).
	corpus := annoda.DefaultCorpus()

	sys, err := annoda.NewSystem(corpus, annoda.Options{Policy: annoda.PolicyPreferPrimary})
	if err != nil {
		log.Fatal(err)
	}

	// The Figure 5(a) question interface: no SQL, no source schemas.
	view, stats, err := sys.Ask(annoda.Figure5bQuestion())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("genes annotated in GO but absent from OMIM: %d\n", len(view.Rows))
	for _, row := range view.Rows[:5] {
		fmt.Printf("  %-10s locus %-6d %-18s %s  (%d GO terms)\n",
			row.Symbol, row.GeneID, row.Organism, row.Position, len(row.GoIDs))
	}
	fmt.Printf("  ...\nsources queried: %v, conflicts reconciled: %d\n",
		stats.SourcesQueried, stats.NumConflicts())

	// The same question as a raw Lorel query in the global vocabulary.
	res, _, err := sys.Query(
		`select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct Lorel query agrees: %v (%d answers)\n",
		res.Size() == len(view.Rows), res.Size())

	// Warm restarts: checkpoint the fused annotation world so the next
	// process boot restores it from disk instead of refetching and
	// re-fusing every source. The server does the same with
	// `annoda-server -data-dir DIR` (restore on boot, WAL per refresh,
	// final checkpoint on graceful shutdown); `annoda -data-dir DIR
	// snapshot info` inspects what a warm restart would restore.
	dir, err := os.MkdirTemp("", "annoda-data-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := annoda.OpenSnapshotStore(dir, annoda.SnapshotStoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Manager.EnablePersistence(st, annoda.PersistPolicy{}); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Manager.SaveSnapshot(); err != nil {
		log.Fatal(err)
	}
	st.Close()

	// A "restarted" process: same corpus, fresh system — but the fused
	// world comes back from the checkpoint, not from the sources.
	sys2, err := annoda.NewSystem(corpus, annoda.Options{Policy: annoda.PolicyPreferPrimary})
	if err != nil {
		log.Fatal(err)
	}
	st2, err := annoda.OpenSnapshotStore(dir, annoda.SnapshotStoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	if err := sys2.Manager.EnablePersistence(st2, annoda.PersistPolicy{}); err != nil {
		log.Fatal(err)
	}
	rr, err := sys2.Manager.LoadSnapshot()
	if err != nil {
		log.Fatal(err)
	}
	view2, _, err := sys2.Ask(annoda.Figure5bQuestion())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm restart: restored %d genes (%d objects) in %v; answers agree: %v\n",
		rr.Genes, rr.Objects, rr.Took.Round(time.Millisecond), len(view2.Rows) == len(view.Rows))
}
