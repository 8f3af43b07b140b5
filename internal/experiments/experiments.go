// Package experiments defines every live E-experiment of EXPERIMENTS.md once:
// its id, the paper artifact it reproduces, an optional printer that
// regenerates the artifact, and named cases. A case is a setup on a corpus
// that returns the operation one timed iteration performs, with whatever
// correctness check the iteration owes folded into that operation.
//
// Two thin drivers run the registry: bench_test.go at the module root (one
// BenchmarkE<n> per experiment, one sub-benchmark per case and scale) and
// cmd/annoda-bench (the printers, a fixed-rounds timing loop, and each
// experiment's derived headline numbers).
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
)

// Op is one timed iteration. i counts iterations from 0; the goroutines of
// a parallel case receive distinct values of i.
type Op func(i int) error

// Case is one measured configuration of an experiment.
type Case struct {
	Name string
	// Scales are the corpus sizes, in genes, `go test -bench` runs the case
	// at, one sub-benchmark each; annoda-bench runs it once, at its -genes.
	Scales []int
	// Parallel cases run their op from many goroutines at once.
	Parallel bool
	// Rounds is how many ops annoda-bench times per trial (0: 10).
	Rounds int
	// Setup builds the case's state, untimed, and returns its op.
	Setup func(env *Env) (Op, error)
}

// Timing is what a driver measured for one case.
type Timing struct {
	PerOp time.Duration
	Ops   int
}

// Experiment is one row of EXPERIMENTS.md's index.
type Experiment struct {
	ID       string
	Artifact string
	// Print, when set, regenerates the artifact (a figure, a table, a
	// worked example) from a system with default options.
	Print func(w io.Writer, sys *core.System) error
	Cases []Case
	// Trials > 1 makes annoda-bench time every case that many times and
	// keep the fastest: overheads of a few percent drown in machine noise.
	Trials int
	// Headlines derives annoda-bench's -json numbers from the case
	// timings, keyed by case name. time.Duration values are written as
	// microseconds.
	Headlines func(t map[string]Timing) map[string]any
}

// All returns the registry in id order.
func All() []*Experiment {
	return []*Experiment{
		e1, e2, e3, e4, e5, e6, e7, e8, e9, e10,
		e11, e12, e19, e20,
	}
}

// Lookup returns the experiment with the given id, or nil.
func Lookup(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Env is a case's setup context: the corpus at the case's scale, and the
// teardown the case registers.
type Env struct {
	Corpus   *datagen.Corpus
	cleanups []func()
}

// NewEnv returns an Env over a generated corpus of the given size.
func NewEnv(genes int, seed uint64) *Env {
	cfg := datagen.DefaultConfig()
	cfg.Genes, cfg.Seed = genes, seed
	return &Env{Corpus: datagen.Generate(cfg)}
}

// DefaultSeed is the corpus seed both drivers use unless told otherwise.
var DefaultSeed = datagen.DefaultConfig().Seed

// Cleanup registers f to run at Close, in reverse registration order.
func (e *Env) Cleanup(f func()) { e.cleanups = append(e.cleanups, f) }

// Close runs the registered cleanups.
func (e *Env) Close() {
	for i := len(e.cleanups) - 1; i >= 0; i-- {
		e.cleanups[i]()
	}
	e.cleanups = nil
}

// System assembles a system over the Env's corpus.
func (e *Env) System(opts mediator.Options) (*core.System, error) {
	return core.New(e.Corpus, opts)
}

// onSystem is the common setup: a system with opts over the case's corpus,
// handed to build for the op.
func onSystem(opts mediator.Options, build func(sys *core.System) (Op, error)) func(*Env) (Op, error) {
	return func(env *Env) (Op, error) {
		sys, err := env.System(opts)
		if err != nil {
			return nil, err
		}
		return build(sys)
	}
}

// ScaleName renders a corpus size the way sub-benchmarks name it: 1000 is
// "1k", 300 is "300".
func ScaleName(genes int) string {
	if genes >= 1000 && genes%1000 == 0 {
		return fmt.Sprintf("%dk", genes/1000)
	}
	return fmt.Sprint(genes)
}

// overheadPct is how much slower a is than b, in percent (0 when b
// measured nothing).
func overheadPct(a, b Timing) float64 {
	if b.PerOp <= 0 {
		return 0
	}
	return (float64(a.PerOp)/float64(b.PerOp) - 1) * 100
}
