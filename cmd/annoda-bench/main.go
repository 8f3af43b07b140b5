// Command annoda-bench regenerates every table and figure of the ANNODA
// paper, and times the quantitative experiments attached to them, from the
// experiment registry in internal/experiments. Run with no flags for
// everything, or -exp E5 for one experiment (E1..E20). Every case runs at
// the -genes corpus size. See EXPERIMENTS.md for the index.
//
// -json FILE additionally writes each experiment's headline numbers as
// machine-readable JSON (the BENCH_N.json files committed at the repo root
// are produced this way).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E20) or 'all'")
	genes := flag.Int("genes", 1000, "corpus size (genes)")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "corpus seed")
	jsonOut := flag.String("json", "", "write headline numbers as JSON to this file")
	flag.Parse()

	exps := experiments.All()
	if *exp != "all" {
		e := experiments.Lookup(strings.ToUpper(*exp))
		if e == nil {
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
		exps = []*experiments.Experiment{e}
	}
	env := experiments.NewEnv(*genes, *seed)
	var sys *core.System // the printers' shared default system, built on first use
	headlines := map[string]map[string]any{}
	for _, e := range exps {
		fmt.Printf("\n================ %s ================\n%s\n\n", e.ID, e.Artifact)
		if e.Print != nil {
			if sys == nil {
				var err error
				if sys, err = env.System(mediator.Options{}); err != nil {
					fatal(err)
				}
			}
			if err := e.Print(os.Stdout, sys); err != nil {
				fatal(fmt.Errorf("%s: %w", e.ID, err))
			}
			fmt.Println()
		}
		timings := map[string]experiments.Timing{}
		fmt.Printf("%-32s %8s %14s\n", "case", "ops", "per-op")
		for _, c := range e.Cases {
			t, err := timeCase(env, c, max(1, e.Trials))
			if err != nil {
				fatal(fmt.Errorf("%s/%s: %w", e.ID, c.Name, err))
			}
			timings[c.Name] = t
			fmt.Printf("%-32s %8d %14v\n", c.Name, t.Ops, t.PerOp.Round(100*time.Nanosecond))
		}
		if e.Headlines != nil {
			h := e.Headlines(timings)
			for k, v := range h {
				if d, ok := v.(time.Duration); ok {
					h[k] = d.Microseconds()
				}
			}
			headlines[e.ID] = h
			fmt.Printf("headlines: %v\n", h)
		}
	}
	if *jsonOut != "" {
		writeHeadlines(*jsonOut, *genes, *seed, headlines)
	}
}

// timeCase sets the case up on env's corpus and times trials runs of its
// rounds, keeping the fastest run's per-op time. Op indices continue
// across trials, so no two ops of a case see the same index.
func timeCase(env *experiments.Env, c experiments.Case, trials int) (experiments.Timing, error) {
	caseEnv := &experiments.Env{Corpus: env.Corpus}
	defer caseEnv.Close()
	op, err := c.Setup(caseEnv)
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

func writeHeadlines(path string, genes int, seed uint64, headlines map[string]map[string]any) {
	data, err := json.MarshalIndent(struct {
		Genes       int                       `json:"genes"`
		Seed        uint64                    `json:"seed"`
		Experiments map[string]map[string]any `json:"experiments"`
	}{genes, seed, headlines}, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nheadline numbers written to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "annoda-bench:", err)
	os.Exit(1)
}
