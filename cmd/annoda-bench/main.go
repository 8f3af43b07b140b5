// Command annoda-bench regenerates every table and figure of the ANNODA
// paper, and times the quantitative experiments attached to them, from the
// experiment registry in internal/experiments. Run with no flags for
// everything, or -exp E5 for one experiment (-h lists the ids). Every case
// runs at the -genes corpus size. See EXPERIMENTS.md for the index.
//
// -json FILE additionally writes each experiment's headline numbers as
// machine-readable JSON (the BENCH_N.json files committed at the repo root
// are produced this way).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mediator"
	"repro/internal/obs"
)

// goroutines drive a parallel case.
const goroutines = 8

// errUsage marks a bad command line: main exits 2 on it, as package flag
// does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "annoda-bench:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, runs the chosen experiments and writes their report to
// stdout.
func run(args []string, stdout io.Writer) error {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	fs := flag.NewFlagSet("annoda-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or 'all'")
	genes := fs.Int("genes", 1000, "corpus size (genes, at least 1)")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "corpus seed")
	jsonOut := fs.String("json", "", "write headline numbers as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *genes < 1 {
		return fmt.Errorf("%w: -genes must be at least 1, got %d", errUsage, *genes)
	}

	exps := experiments.All()
	if *exp != "all" {
		e := experiments.Lookup(strings.ToUpper(*exp))
		if e == nil {
			return fmt.Errorf("%w: unknown experiment %q (have %s)", errUsage, *exp, strings.Join(ids, ", "))
		}
		exps = []*experiments.Experiment{e}
	}
	env := experiments.NewEnv(*genes, *seed)
	var sys *core.System // the printers' shared default system, built on first use
	headlines := map[string]map[string]any{}
	for _, e := range exps {
		fmt.Fprintf(stdout, "\n================ %s ================\n%s\n\n", e.ID, e.Artifact)
		if e.Print != nil {
			if sys == nil {
				var err error
				if sys, err = env.System(mediator.Options{}); err != nil {
					return err
				}
			}
			if err := e.Print(stdout, sys); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintln(stdout)
		}
		timings := map[string]experiments.Timing{}
		fmt.Fprintf(stdout, "%-32s %8s %14s\n", "case", "ops", "per-op")
		for _, c := range e.Cases {
			t, err := timeCase(env, c, max(1, e.Trials))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", e.ID, c.Name, err)
			}
			timings[c.Name] = t
			fmt.Fprintf(stdout, "%-32s %8d %14v\n", c.Name, t.Ops, t.PerOp.Round(100*time.Nanosecond))
		}
		if e.Headlines != nil {
			h := e.Headlines(timings)
			for k, v := range h {
				if d, ok := v.(time.Duration); ok {
					h[k] = d.Microseconds()
				}
			}
			headlines[e.ID] = h
			fmt.Fprintf(stdout, "headlines: %v\n", h)
		}
	}
	if *jsonOut == "" {
		return nil
	}
	if err := writeHeadlines(*jsonOut, *genes, *seed, headlines); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nheadline numbers written to %s\n", *jsonOut)
	return nil
}

// timeCase sets the case up on env's corpus and times trials runs of its
// rounds, keeping the fastest run's per-op time. Op indices continue
// across trials, so no two ops of a case see the same index.
func timeCase(env *experiments.Env, c experiments.Case, trials int) (experiments.Timing, error) {
	op, err := c.Setup(env)
	if err != nil {
		return experiments.Timing{}, err
	}
	rounds, workers := c.Rounds, 1
	if rounds <= 0 {
		rounds = 10
	}
	if c.Parallel {
		workers = goroutines
	}
	best := experiments.Timing{Ops: rounds}
	for t := 0; t < trials; t++ {
		runtime.GC()
		t0 := obs.Now()
		if err := runRounds(op, t*rounds, rounds, workers); err != nil {
			return best, err
		}
		if per := obs.Since(t0) / time.Duration(rounds); t == 0 || per < best.PerOp {
			best.PerOp = per
		}
	}
	return best, nil
}

// runRounds runs ops base..base+rounds-1, striped over workers goroutines,
// and returns the first error.
func runRounds(op experiments.Op, base, rounds, workers int) error {
	errs := make(chan error, workers)
	for w := range workers {
		go func() {
			for i := w; i < rounds; i += workers {
				if err := op(base + i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range workers {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

func writeHeadlines(path string, genes int, seed uint64, headlines map[string]map[string]any) error {
	data, err := json.MarshalIndent(struct {
		Genes       int                       `json:"genes"`
		Seed        uint64                    `json:"seed"`
		Experiments map[string]map[string]any `json:"experiments"`
	}{genes, seed, headlines}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
