// Package annoda is the public API of this ANNODA reproduction: a federated
// integration system for molecular-biological annotation data (Prompramote
// & Chen, ICDE Workshops 2005).
//
// A System wraps three simulated annotation sources (LocusLink, GeneOntology,
// OMIM — generated deterministically by a corpus seed), builds the
// ANNODA-GML global model over them with MDSM/Hungarian schema matching,
// and mediates queries:
//
//	sys, err := annoda.NewSystem(annoda.DefaultCorpus(), annoda.Options{})
//	view, stats, err := sys.Ask(annoda.Question{
//	    Include: []string{"GO"},   // annotated with some GO function
//	    Exclude: []string{"OMIM"}, // not associated with a disease
//	})
//	fmt.Print(view.Format())
//
// Lorel queries in the global vocabulary are also accepted directly:
//
//	res, stats, err := sys.Query(
//	    `select G from ANNODA-GML.Gene G where exists G.Annotation`)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-artifact reproductions.
package annoda

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
	"repro/internal/snapstore"
)

// System is a running ANNODA instance. It embeds the internal system; all
// methods of core.System (Ask, Query, ObjectView, AnnotateBatch,
// PlugInProteins, ToLorel) are part of the public API.
type System = core.System

// Question is the Figure 5(a) biological-question form.
type Question = core.Question

// Condition narrows a question ({Field, Op, Value}).
type Condition = core.Condition

// View is the Figure 5(b) integrated annotation view.
type View = core.ViewRow

// Options tunes the mediator: reconciliation policy, fan-out width
// (Workers), fault tolerance, and the sharded result cache (CacheSize,
// CacheTTL, DisableCache).
// Repeated questions are answered from the cache; concurrent identical
// questions collapse onto one computation.
type Options = mediator.Options

// Corpus is a deterministic synthetic annotation corpus.
type Corpus = datagen.Corpus

// CorpusConfig sizes a corpus.
type CorpusConfig = datagen.Config

// Reconciliation policies.
const (
	PolicyPreferPrimary = mediator.PolicyPreferPrimary
	PolicyMajority      = mediator.PolicyMajority
	PolicyUnion         = mediator.PolicyUnion
)

// Question combination modes.
const (
	CombineAll = core.CombineAll
	CombineAny = core.CombineAny
)

// DefaultCorpus generates the corpus used throughout the examples and
// experiments (seed 20050405: 1000 genes, 300 GO terms, 400 diseases, 15%
// conflicts, 10% missing fields).
func DefaultCorpus() *Corpus { return datagen.Generate(datagen.DefaultConfig()) }

// GenerateCorpus generates a corpus from an explicit configuration.
func GenerateCorpus(cfg CorpusConfig) *Corpus { return datagen.Generate(cfg) }

// NewSystem assembles a full ANNODA instance over a corpus: loads the three
// sources into their native storage, wraps them, MDSM-matches their schemas
// onto the global concepts, and starts the mediator and link navigator.
func NewSystem(c *Corpus, opts Options) (*System, error) { return core.New(c, opts) }

// Figure5bQuestion is the paper's running example: "Find a set of LocusLink
// genes, which are annotated with some GO functions, but not associated
// with some OMIM disease".
func Figure5bQuestion() Question { return core.Figure5bQuestion() }

// SnapshotStore is a durable checkpoint + delta-WAL store for the fused
// annotation world (see DESIGN.md "Persistence"). Attach one with
// sys.Manager.EnablePersistence, checkpoint with SaveSnapshot, and warm-
// start a fresh process with LoadSnapshot — restore decodes the newest
// valid checkpoint and replays its WAL instead of refetching and re-fusing
// every source.
type SnapshotStore = snapstore.Store

// SnapshotStoreOptions tunes a SnapshotStore (WAL fsync, retention).
type SnapshotStoreOptions = snapstore.Options

// PersistPolicy drives auto-checkpointing: the delta WAL is folded into a
// fresh checkpoint after EveryRecords records or EveryBytes bytes (zero
// values select the defaults).
type PersistPolicy = mediator.PersistPolicy

// OpenSnapshotStore creates (if needed) and opens a snapshot store
// directory.
func OpenSnapshotStore(dir string, opts SnapshotStoreOptions) (*SnapshotStore, error) {
	return snapstore.Open(dir, opts)
}
