// Command annoda is the command-line interface to the ANNODA system.
//
// Usage:
//
//	annoda [-genes N] [-seed S] <subcommand> [args]
//
// Subcommands:
//
//	corpus                     print corpus statistics
//	oml <source> [i]           Figure 3 OML text for record i of a source
//	gml                        describe the global model mappings
//	query <lorel>              run a global Lorel query through the mediator
//	explain [-analyze] <lorel> the query plan: plan tree, source prune and
//	                           pushdown decisions with reasons, snapshot-path
//	                           routing; -analyze also executes it and prints
//	                           per-stage cardinalities and timings
//	ask [flags...]             run a biological question (Figure 5(a))
//	show <url>                 individual object view for a web-link (5(c))
//	sql <select>               DiscoveryLink-style SQL SELECT against nicknames
//	table1                     regenerate the paper's Table 1
//	snapshot save              write a durable snapshot checkpoint to -data-dir
//	snapshot info              inspect the newest restorable checkpoint in -data-dir
//	watch [flags]              follow a running server's change feed (SSE)
//	traces [flags]             dump a running server's recent/slow request traces
//	sources [flags]            a running server's per-source health: breaker
//	                           state, failure/retry/probe counters, epoch
//	                           membership (-json for the raw /readyz payload)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/baselines/capability"
	"repro/internal/baselines/fedsql"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fused"
	"repro/internal/mediator"
	"repro/internal/snapstore"
	"repro/internal/wrapper"
)

// errUsage marks a bad command line: main exits 2 on it, as package flag
// does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "annoda:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args and runs one subcommand, writing its output to stdout and
// flag diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("annoda", flag.ContinueOnError)
	fs.SetOutput(stderr)
	genes := fs.Int("genes", 1000, "corpus size (genes, at least 1)")
	seed := fs.Uint64("seed", 20050405, "corpus seed")
	policy := fs.String("policy", "prefer-primary", "reconciliation policy: prefer-primary|majority|union")
	protdb := fs.Bool("protdb", false, "plug the protein source in at startup")
	dataDir := fs.String("data-dir", "", "durable snapshot store directory (snapshot subcommands)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *genes < 1 {
		return fmt.Errorf("%w: -genes must be at least 1, got %d", errUsage, *genes)
	}
	args = fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("%w: no subcommand", errUsage)
	}

	switch args[0] {
	// `snapshot info` reads the store directly — no corpus, no system, no
	// source fetch; an operator can point it at any data dir.
	case "snapshot":
		if *dataDir == "" {
			return fmt.Errorf("%w: annoda snapshot needs -data-dir", errUsage)
		}
		if len(args) > 1 && args[1] == "info" {
			return snapshotInfo(stdout, *dataDir)
		}
	// `watch`, `traces` and `sources` talk to a running server (its change
	// feed, debug rings and /readyz) — generating a corpus here would only
	// slow them down.
	case "watch":
		return watchCmd(args[1:], stdout)
	case "traces":
		return tracesCmd(args[1:], stdout)
	case "sources":
		return sourcesCmd(args[1:], stdout)
	}

	cfg := datagen.DefaultConfig()
	cfg.Genes = *genes
	cfg.Seed = *seed
	c := datagen.Generate(cfg)
	opts := mediator.Options{}
	switch *policy {
	case "prefer-primary":
		opts.Policy = fused.PolicyPreferPrimary
	case "majority":
		opts.Policy = fused.PolicyMajority
	case "union":
		opts.Policy = fused.PolicyUnion
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	sys, err := core.New(c, opts)
	if err != nil {
		return err
	}
	if *protdb {
		if err := sys.PlugInProteins(); err != nil {
			return err
		}
	}

	switch args[0] {
	case "corpus":
		fmt.Fprintf(stdout, "seed %d: %d genes, %d GO terms, %d diseases\n", cfg.Seed, len(c.Genes), len(c.Terms), len(c.Diseases))
		fmt.Fprintf(stdout, "figure-5b ground truth: %d genes with GO but no OMIM\n", len(c.GenesWithGoButNotOMIM()))
		fmt.Fprintf(stdout, "conflicting genes: %d\n", len(c.ConflictingGenes()))
	case "oml":
		if len(args) < 2 {
			return fmt.Errorf("%w: annoda oml <source> [index]", errUsage)
		}
		w := sys.Registry.Get(args[1])
		if w == nil {
			return fmt.Errorf("unknown source %q (have %v)", args[1], sys.Registry.Names())
		}
		i := 0
		if len(args) > 2 {
			i, err = strconv.Atoi(args[2])
			if err != nil {
				return err
			}
		}
		text, err := wrapper.FragmentText(w, i)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, text)
	case "gml":
		fmt.Fprint(stdout, sys.Global.Describe())
	case "query":
		if len(args) < 2 {
			return fmt.Errorf("%w: annoda query '<lorel>'", errUsage)
		}
		res, stats, err := sys.Query(strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "answer: %d edges\n", res.Size())
		fmt.Fprint(stdout, stats.String())
	case "explain":
		rest := args[1:]
		analyze := false
		if len(rest) > 0 && rest[0] == "-analyze" {
			analyze = true
			rest = rest[1:]
		}
		if len(rest) == 0 {
			return fmt.Errorf("%w: annoda explain [-analyze] '<lorel>'", errUsage)
		}
		e, err := sys.Manager.ExplainString(strings.Join(rest, " "), analyze)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, e.Format())
	case "ask":
		q, err := parseQuestion(args[1:])
		if err != nil {
			return err
		}
		v, stats, err := sys.Ask(q)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, v.Format())
		fmt.Fprint(stdout, stats.String())
	case "show":
		if len(args) < 2 {
			return fmt.Errorf("%w: annoda show <url>", errUsage)
		}
		out, err := sys.ObjectView(args[1])
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out)
	case "sql":
		if len(args) < 2 {
			return fmt.Errorf("%w: annoda sql '<select>'", errUsage)
		}
		rs, err := fedsql.New(sys.Registry).Query(strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rs.Format())
	case "table1":
		f, err := capability.NewFixture(sys)
		if err != nil {
			return err
		}
		rows, err := capability.BuildTable(f)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, capability.Format(rows))
	case "snapshot":
		if len(args) < 2 {
			return fmt.Errorf("%w: annoda -data-dir DIR snapshot save|info", errUsage)
		}
		if args[1] != "save" {
			return fmt.Errorf("%w: unknown snapshot subcommand %q (want save or info)", errUsage, args[1])
		}
		return snapshotSave(stdout, sys, *dataDir)
	default:
		return fmt.Errorf("%w: unknown subcommand %q", errUsage, args[0])
	}
	return nil
}

// snapshotSave builds the fused world (if not already built) and writes a
// checkpoint — the operational "prime the warm-restart store" verb. The
// checkpoint records the source set it was fused from, and restore rejects
// a mismatch: to prime a store for annoda-server (which always plugs the
// protein source in), pass -protdb.
func snapshotSave(stdout io.Writer, sys *core.System, dataDir string) error {
	st, err := snapstore.Open(dataDir, snapstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := sys.Manager.EnablePersistence(st, mediator.PersistPolicy{}); err != nil {
		return err
	}
	// No restore first: the point of `snapshot save` is to checkpoint the
	// world fused from the *current* corpus flags, not to rewrite the old
	// one (EnablePersistence already continued the store's sequence).
	res, err := sys.Manager.SaveSnapshot()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "checkpoint seq %d written to %s: %d bytes in %v\n",
		res.Seq, dataDir, res.Bytes, res.Took)
	return nil
}

// snapshotInfo prints the newest restorable checkpoint's vitals.
func snapshotInfo(stdout io.Writer, dataDir string) error {
	st, err := snapstore.Open(dataDir, snapstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	info, err := mediator.SnapshotInfo(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "store:         %s\n", dataDir)
	fmt.Fprintf(stdout, "checkpoint:    seq %d (%d bytes, container format v%d)\n", info.Seq, info.PayloadBytes, snapstore.FormatVersion)
	if info.Skipped > 0 {
		fmt.Fprintf(stdout, "skipped:       %d newer unrestorable checkpoint(s)\n", info.Skipped)
	}
	fmt.Fprintf(stdout, "fingerprint:   %016x\n", info.Fingerprint)
	fmt.Fprintf(stdout, "policy:        %v\n", info.Policy)
	fmt.Fprintf(stdout, "fused genes:   %d\n", info.Genes)
	fmt.Fprintf(stdout, "graph objects: %d\n", info.Objects)
	fmt.Fprintf(stdout, "conflicts:     %d\n", info.Conflicts)
	srcs := make([]string, 0, len(info.Entities))
	for s := range info.Entities {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fmt.Fprintf(stdout, "  %-12s %d entities\n", s, info.Entities[s])
	}
	if info.WALTruncated {
		fmt.Fprintf(stdout, "wal:           %d records (+ torn tail that restore will drop)\n", info.WALRecords)
	} else {
		fmt.Fprintf(stdout, "wal:           %d records\n", info.WALRecords)
	}
	if info.StaleFiles > 0 {
		fmt.Fprintf(stdout, "stale files:   %d (pruning failed; remove them manually to reclaim space)\n", info.StaleFiles)
	}
	return nil
}

// parseQuestion turns "include=GO exclude=OMIM combine=any cond=Organism=Homo sapiens"
// style arguments into a Question.
func parseQuestion(args []string) (core.Question, error) {
	var q core.Question
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return q, fmt.Errorf("bad question argument %q (want key=value)", a)
		}
		switch k {
		case "include":
			q.Include = append(q.Include, strings.Split(v, ",")...)
		case "exclude":
			q.Exclude = append(q.Exclude, strings.Split(v, ",")...)
		case "combine":
			if v == "any" {
				q.Combine = core.CombineAny
			}
		case "cond":
			parts := strings.SplitN(v, ":", 3)
			if len(parts) != 3 {
				return q, fmt.Errorf("bad cond %q (want field:op:value)", v)
			}
			q.Conditions = append(q.Conditions, core.Condition{Field: parts[0], Op: parts[1], Value: parts[2]})
		default:
			return q, fmt.Errorf("unknown question key %q", k)
		}
	}
	return q, nil
}
