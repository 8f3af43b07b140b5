// Command benchmark is the repository's benchmark: four named workloads
// through the real annoda-server (three over HTTP against a subprocess, one
// in-process because sources can only be edited in-process), end-to-end
// metrics with bounds, per-layer metrics from /metrics scrapes and from a
// separate traced run. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md says why each exists.
//
//	go run -C benchmark . run    [-workload W] [-seed N] [-seconds S]
//	go run -C benchmark . trace  [-workload W] [-seed N] [-seconds S]
//	go run -C benchmark . repeat [-n 2] [-workload W] [-seed N] [-seconds S]
//	bash benchmark/bench.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/datagen"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark run|trace|repeat|bench [flags]")
		os.Exit(2)
	}
	if err := dispatch(os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the flags every subcommand shares.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	n        int
	quick    bool
}

func dispatch(cmd string, args []string) error {
	var o options
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: which questions and keys, in what order")
	fs.IntVar(&o.seconds, "seconds", 0, "timed window per workload (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "bench: 1 runs the trace pass too and prints the per-layer metrics")
	fs.IntVar(&o.n, "n", 2, "repeat: number of measure passes to compare")
	fs.BoolVar(&o.quick, "quick", false, "smoke profile: 200 genes, one-second windows")
	if err := fs.Parse(args); err != nil {
		return err
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = spec.RunSeconds
	}
	prof := defaultProfile(time.Duration(o.seconds) * time.Second)
	if o.quick {
		prof = quickProfile()
	}
	var workloads []string
	for _, w := range spec.Workloads {
		if o.workload == "" || o.workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	base := runConfig{root: root, serverBin: bin, seed: o.seed, prof: prof}

	switch cmd {
	case "bench":
		if len(workloads) != 1 {
			return fmt.Errorf("bench needs -workload")
		}
		return benchOnce(spec, base, workloads[0], o.trace == 1)
	case "run", "trace":
		base.trace = cmd == "trace"
		results, err := runAll(spec, base, workloads)
		if err != nil {
			return err
		}
		if err := writeResults(root, spec, base, results); err != nil {
			return err
		}
		for _, r := range results {
			if !r.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
			}
		}
		return nil
	case "repeat":
		return repeat(spec, base, workloads, o.n)
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// runAll runs the workloads one after another and prints every metric.
func runAll(spec *benchSpec, base runConfig, workloads []string) ([]*workloadResult, error) {
	var results []*workloadResult
	for _, w := range workloads {
		cfg := base
		cfg.workload = w
		r, err := runWorkload(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		printResult(spec, r)
		if cfg.trace {
			printSelfTimes(r)
		}
		results = append(results, r)
	}
	return results, nil
}

// printSelfTimes prints the trace pass's ledger: self time per layer.
func printSelfTimes(r *workloadResult) {
	self := selfTimeByLayer(r.spans)
	layers := make([]string, 0, len(self))
	var total float64
	for l, v := range self {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		fmt.Printf("%-15s self time %-12s %12.3f ms %5.1f%%\n", r.Workload, l, self[l], 100*self[l]/total)
	}
}

// resultFile is benchmark/out/result.json: the machine and build the
// numbers belong to, then one entry per workload.
type resultFile struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GitCommit  string            `json:"git_commit"`
	CorpusSeed uint64            `json:"corpus_seed"`
	StartedAt  string            `json:"started_at"`
	Workloads  []*workloadResult `json:"workloads"`
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a source archive, not a clone
	}
	return strings.TrimSpace(string(out))
}

func writeResults(root string, spec *benchSpec, base runConfig, results []*workloadResult) error {
	out := filepath.Join(root, spec.Paths[0], "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rf := resultFile{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitCommit: gitCommit(root),
		CorpusSeed: datagen.DefaultConfig().Seed, StartedAt: time.Now().UTC().Format(time.RFC3339),
		Workloads: results,
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	name := "result.json"
	if base.trace {
		name = "trace-result.json"
	}
	if err := os.WriteFile(filepath.Join(out, name), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range results {
		if r.spans == nil {
			continue
		}
		if err := writeSpans(filepath.Join(out, "trace-"+r.Workload+".jsonl"), r.spans); err != nil {
			return err
		}
	}
	return nil
}

// benchOnce is the driver's contract: one workload, one run, and as the
// last line of standard output one JSON object with correct, attempted,
// failed and metrics — every end_to_end metric of BENCHMARK.json with
// tracing off, every per_layer metric with it on. A per-layer metric that
// does not apply to the workload reads 0 here (the contract wants numbers);
// result.json keeps the distinction as null.
func benchOnce(spec *benchSpec, base runConfig, workload string, trace bool) error {
	cfg := base
	cfg.workload = workload
	cfg.trace = trace
	r, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printResult(spec, r)
	if err := writeResults(base.root, spec, cfg, []*workloadResult{r}); err != nil {
		return err
	}
	type measured struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	out := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]measured{}}
	for _, em := range list {
		v, ok := r.Metrics.get(em.Name)
		if !ok && !trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", workload, em.Name)
		}
		out.Metrics[em.Name] = measured{Value: v, Unit: em.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// repeat runs the measure pass n times and, per workload and end-to-end
// metric, prints min, median, max and the worsening from the best pass to
// the worst against the metric's bound. Passes of the same code that
// disagree by more than the bound fail the command: a bound the sandbox
// cannot hold is a bound to widen in BENCHMARK.json, with the measured
// spread recorded in README.md.
func repeat(spec *benchSpec, base runConfig, workloads []string, n int) error {
	if n < 2 {
		return fmt.Errorf("repeat needs -n of at least 2")
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per pass
	for pass := 0; pass < n; pass++ {
		fmt.Printf("--- pass %d of %d ---\n", pass+1, n)
		results, err := runAll(spec, base, workloads)
		if err != nil {
			return err
		}
		for _, r := range results {
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for _, em := range spec.endToEnd() {
				if v, ok := r.Metrics.get(em.Name); ok {
					values[r.Workload][em.Name] = append(values[r.Workload][em.Name], v)
				}
			}
		}
	}
	fmt.Printf("\n%-15s %-24s %12s %12s %12s %9s %7s\n", "workload", "metric", "min", "median", "max", "worsening", "bound")
	var over []string
	for _, w := range workloads {
		for _, em := range spec.endToEnd() {
			xs := values[w][em.Name]
			if len(xs) == 0 {
				continue
			}
			lo, hi := percentile(xs, 0), percentile(xs, 1)
			best, worst := lo, hi
			if em.Better == "higher" {
				best, worst = hi, lo
			}
			worse := 0.0
			if best != worst {
				worse = (worst - best) / best
				if em.Better == "higher" {
					worse = (best - worst) / best
				}
			}
			verdict := ""
			if worse > em.Bound {
				verdict = "  OVER"
				over = append(over, w+"/"+em.Name)
			}
			fmt.Printf("%-15s %-24s %12s %12s %12s %8.1f%% %6.0f%%%s\n", w, em.Name,
				trimFloat(lo), trimFloat(median(xs)), trimFloat(hi), 100*worse, 100*em.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("passes of the same code disagree by more than the bound on %s", strings.Join(over, ", "))
	}
	return nil
}
