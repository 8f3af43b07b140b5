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
//	sql <query>                DiscoveryLink-style SQL against nicknames
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
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/capability"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fedsql"
	"repro/internal/mediator"
	"repro/internal/snapstore"
	"repro/internal/wrapper"
)

func main() {
	genes := flag.Int("genes", 1000, "corpus size (genes)")
	seed := flag.Uint64("seed", 20050405, "corpus seed")
	policy := flag.String("policy", "prefer-primary", "reconciliation policy: prefer-primary|majority|union")
	protdb := flag.Bool("protdb", false, "plug the protein source in at startup")
	dataDir := flag.String("data-dir", "", "durable snapshot store directory (snapshot subcommands)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// `snapshot info` reads the store directly — no corpus, no system, no
	// source fetch; an operator can point it at any data dir.
	if args[0] == "snapshot" && len(args) > 1 && args[1] == "info" {
		if err := snapshotInfo(*dataDir); err != nil {
			fatal(err)
		}
		return
	}
	// `watch` talks to a running server — generating a corpus here would
	// only slow the subscription down.
	if args[0] == "watch" {
		if err := watchCmd(args[1:]); err != nil {
			fatal(err)
		}
		return
	}
	// `traces` likewise queries a running server's debug rings.
	if args[0] == "traces" {
		if err := tracesCmd(args[1:]); err != nil {
			fatal(err)
		}
		return
	}
	// `sources` likewise renders a running server's /readyz health view.
	if args[0] == "sources" {
		if err := sourcesCmd(args[1:]); err != nil {
			fatal(err)
		}
		return
	}

	cfg := datagen.DefaultConfig()
	cfg.Genes = *genes
	cfg.Seed = *seed
	c := datagen.Generate(cfg)
	opts := mediator.Options{}
	switch *policy {
	case "prefer-primary":
		opts.Policy = mediator.PolicyPreferPrimary
	case "majority":
		opts.Policy = mediator.PolicyMajority
	case "union":
		opts.Policy = mediator.PolicyUnion
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
	sys, err := core.New(c, opts)
	if err != nil {
		fatal(err)
	}
	if *protdb {
		if err := sys.PlugInProteins(); err != nil {
			fatal(err)
		}
	}

	switch args[0] {
	case "corpus":
		fmt.Printf("seed %d: %d genes, %d GO terms, %d diseases\n", cfg.Seed, len(c.Genes), len(c.Terms), len(c.Diseases))
		fmt.Printf("figure-5b ground truth: %d genes with GO but no OMIM\n", len(c.GenesWithGoButNotOMIM()))
		fmt.Printf("conflicting genes: %d\n", len(c.ConflictingGenes()))
	case "oml":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: annoda oml <source> [index]"))
		}
		w := sys.Registry.Get(args[1])
		if w == nil {
			fatal(fmt.Errorf("unknown source %q (have %v)", args[1], sys.Registry.Names()))
		}
		i := 0
		if len(args) > 2 {
			i, err = strconv.Atoi(args[2])
			if err != nil {
				fatal(err)
			}
		}
		text, err := wrapper.FragmentText(w, i)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	case "gml":
		fmt.Print(sys.Global.Describe())
	case "query":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: annoda query '<lorel>'"))
		}
		res, stats, err := sys.Query(strings.Join(args[1:], " "))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("answer: %d edges\n", res.Size())
		fmt.Print(stats.String())
	case "explain":
		rest := args[1:]
		analyze := false
		if len(rest) > 0 && rest[0] == "-analyze" {
			analyze = true
			rest = rest[1:]
		}
		if len(rest) == 0 {
			fatal(fmt.Errorf("usage: annoda explain [-analyze] '<lorel>'"))
		}
		e, err := sys.Manager.ExplainString(strings.Join(rest, " "), analyze)
		if err != nil {
			fatal(err)
		}
		fmt.Print(e.Format())
	case "ask":
		q, err := parseQuestion(args[1:])
		if err != nil {
			fatal(err)
		}
		v, stats, err := sys.Ask(q)
		if err != nil {
			fatal(err)
		}
		fmt.Print(v.Format())
		fmt.Print(stats.String())
	case "show":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: annoda show <url>"))
		}
		out, err := sys.ObjectView(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "sql":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: annoda sql '<select>'"))
		}
		rs, err := fedsql.New(sys.Registry).Query(strings.Join(args[1:], " "))
		if err != nil {
			fatal(err)
		}
		fmt.Print(rs.Format())
	case "table1":
		f, err := capability.NewFixture(sys)
		if err != nil {
			fatal(err)
		}
		rows, err := capability.BuildTable(f)
		if err != nil {
			fatal(err)
		}
		fmt.Print(capability.Format(rows))
	case "snapshot":
		if len(args) < 2 {
			fatal(fmt.Errorf("usage: annoda -data-dir DIR snapshot save|info"))
		}
		switch args[1] {
		case "save":
			if err := snapshotSave(sys, *dataDir); err != nil {
				fatal(err)
			}
		default:
			fatal(fmt.Errorf("unknown snapshot subcommand %q (want save or info)", args[1]))
		}
	default:
		fatal(fmt.Errorf("unknown subcommand %q", args[0]))
	}
}

// snapshotSave builds the fused world (if not already built) and writes a
// checkpoint — the operational "prime the warm-restart store" verb. The
// checkpoint records the source set it was fused from, and restore rejects
// a mismatch: to prime a store for annoda-server (which always plugs the
// protein source in), pass -protdb.
func snapshotSave(sys *core.System, dataDir string) error {
	if dataDir == "" {
		return fmt.Errorf("snapshot save needs -data-dir")
	}
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
	fmt.Printf("checkpoint seq %d written to %s: %d bytes in %v\n",
		res.Seq, dataDir, res.Bytes, res.Took)
	return nil
}

// snapshotInfo prints the newest restorable checkpoint's vitals.
func snapshotInfo(dataDir string) error {
	if dataDir == "" {
		return fmt.Errorf("snapshot info needs -data-dir")
	}
	st, err := snapstore.Open(dataDir, snapstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	info, err := mediator.SnapshotInfo(st)
	if err != nil {
		return err
	}
	fmt.Printf("store:         %s\n", dataDir)
	fmt.Printf("checkpoint:    seq %d (%d bytes, container format v%d)\n", info.Seq, info.PayloadBytes, snapstore.FormatVersion)
	if info.Skipped > 0 {
		fmt.Printf("skipped:       %d newer unrestorable checkpoint(s)\n", info.Skipped)
	}
	fmt.Printf("fingerprint:   %016x\n", info.Fingerprint)
	fmt.Printf("policy:        %v\n", info.Policy)
	fmt.Printf("fused genes:   %d\n", info.Genes)
	fmt.Printf("graph objects: %d\n", info.Objects)
	fmt.Printf("conflicts:     %d\n", info.Conflicts)
	srcs := make([]string, 0, len(info.Entities))
	for s := range info.Entities {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	for _, s := range srcs {
		fmt.Printf("  %-12s %d entities\n", s, info.Entities[s])
	}
	if info.WALTruncated {
		fmt.Printf("wal:           %d records (+ torn tail that restore will drop)\n", info.WALRecords)
	} else {
		fmt.Printf("wal:           %d records\n", info.WALRecords)
	}
	if info.StaleFiles > 0 {
		fmt.Printf("stale files:   %d (pruning failed; remove them manually to reclaim space)\n", info.StaleFiles)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "annoda:", err)
	os.Exit(1)
}
