package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	root      string
	serverBin string
	workload  string
	seed      uint64
	prof      profile
	trace     bool // after the measure pass, run the trace pass too
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Workload      string         `json:"workload"`
	WorkloadSeed  uint64         `json:"workload_seed"`
	Genes         int            `json:"genes"`
	ServerFlags   []string       `json:"server_flags"` // empty for the in-process workload
	WindowSeconds float64        `json:"window_seconds"`
	Attempted     int            `json:"attempted"`
	Failed        int            `json:"failed"`
	Correct       bool           `json:"correct"`
	Samples       map[string]int `json:"samples"` // completed requests per latency class
	Metrics       metrics        `json:"metrics"`
	Failures      []string       `json:"failures,omitempty"` // the first few, verbatim
	spans         []span         // trace pass only; written to trace-<workload>.jsonl
}

func (r *workloadResult) fail(msgs []string) {
	r.Failed += len(msgs)
	for _, m := range msgs {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, m)
		}
	}
}

// finish derives what every workload reports the same way.
func (r *workloadResult) finish(obs []obsv, setups []float64) {
	r.Samples = map[string]int{}
	for _, o := range obs {
		r.Samples[o.class]++
	}
	r.Metrics.set("setup_s", median(setups))
	r.Metrics.set("error_ratio", float64(r.Failed)/float64(r.Attempted))
	r.Correct = r.Failed == 0
}

// runWorkload measures one workload: set-up, timed window with tracing
// off, correctness checks after the window, then the remaining set-up
// repetitions (after, so that the measured process starts from a cold
// heap exactly once).
func runWorkload(cfg runConfig) (*workloadResult, error) {
	if cfg.workload == wlRefreshChurn {
		return runChurn(cfg)
	}
	return runHTTP(cfg)
}

func runHTTP(cfg runConfig) (*workloadResult, error) {
	genes := cfg.prof.genes[cfg.workload]
	corpus := corpusFor(genes)
	p := newPlan(cfg.workload, corpus, cfg.seed)
	res := &workloadResult{
		Workload: cfg.workload, WorkloadSeed: cfg.seed, Genes: genes,
		WindowSeconds: cfg.prof.window.Seconds(), Metrics: metrics{},
	}
	m := res.Metrics

	// setUp is process start -> /healthz -> priming list answered.
	setUp := func() (*serverProc, *loadResult, float64, error) {
		t0 := time.Now()
		srv, err := startServer(cfg.serverBin, genes)
		if err != nil {
			return nil, nil, 0, err
		}
		primed := sendAll(srv.base, p.prime)
		return srv, primed, time.Since(t0).Seconds(), nil
	}

	srv, primed, setupS, err := setUp()
	if err != nil {
		return nil, err
	}
	setups := []float64{setupS}
	res.ServerFlags = srv.flags
	window, err := httpWindow(cfg, srv, p, m)
	srv.stop()
	if err != nil {
		return nil, err
	}
	for i := 1; i < cfg.prof.setupReps; i++ {
		s, _, secs, err := setUp()
		if err != nil {
			return nil, err
		}
		s.stop()
		setups = append(setups, secs)
	}

	res.Attempted = primed.attempted + window.attempted
	res.fail(primed.errs)
	res.fail(window.errs)
	oracle, err := newOracle(corpus)
	if err != nil {
		return nil, err
	}
	res.fail(oracle.checkSaved(append(primed.saved, window.saved...)))
	res.finish(window.obs, setups)

	if cfg.trace {
		tr := newTracer()
		if err := tracePass(cfg, corpus, p, tr); err != nil {
			return nil, err
		}
		res.spans = tr.spans
		traceMetrics(res.spans, m)
	}
	return res, nil
}

// probe brackets a timed window with readings of the measured process
// (the server, or this process for refresh_churn) and its metric registry.
type probe struct {
	pid    int
	gather func() (scrape, error)
	before scrape
	cpu0   time.Duration
}

func startProbe(pid int, gather func() (scrape, error)) (*probe, error) {
	if pid == os.Getpid() {
		// This process has run set-ups, and under run or repeat earlier
		// workloads and their oracles; restart its RSS high-water mark so
		// that the reading belongs to this window.
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, err
		}
	}
	before, err := gather()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	return &probe{pid: pid, gather: gather, before: before, cpu0: cpu0}, err
}

// stop returns the registry's change over the window, the CPU time the
// process used in it, and the process's peak RSS so far.
func (p *probe) stop() (delta scrape, cpu time.Duration, rssMB float64, err error) {
	cpu1, err := procCPU(p.pid)
	if err != nil {
		return nil, 0, 0, err
	}
	if rssMB, err = procPeakRSSMB(p.pid); err != nil {
		return nil, 0, 0, err
	}
	after, err := p.gather()
	if err != nil {
		return nil, 0, 0, err
	}
	return after.sub(p.before), cpu1 - p.cpu0, rssMB, nil
}

// windowMetrics records the end-to-end metrics every workload defines the
// same way: obs and elapsed are the closed-loop window's, completed counts
// every request the CPU time was spent on.
func windowMetrics(m metrics, obs []obsv, elapsed, cpu time.Duration, completed, rssMB float64) {
	lat := latencies(obs)
	m.set("throughput_rps", float64(len(obs))/elapsed.Seconds())
	m.set("latency_p50_ms", median(lat))
	m.set("latency_p95_ms", percentile(lat, 0.95))
	m.set("server_cpu_ms_per_req", ms(cpu)/completed)
	m.set("server_peak_rss_mb", rssMB)
}

// httpWindow runs the timed window against a primed server and records
// the window's metrics into m.
func httpWindow(cfg runConfig, srv *serverProc, p plan, m metrics) (*loadResult, error) {
	pr, err := startProbe(srv.pid(), srv.scrapeMetrics)
	if err != nil {
		return nil, err
	}

	var closed, open *loadResult
	if cfg.workload == wlHotAsk {
		// Phase A is the closed loop, phase B an open loop at a fixed rate,
		// for independent form users. The two alternate in slices, half the
		// window each: the sandbox's speed drifts by ±20% over seconds, and
		// interleaving lets both phases average over the whole window.
		closed, open = &loadResult{}, &loadResult{}
		slice := cfg.prof.window / (2 * hotAskSlices)
		for i := 0; i < hotAskSlices; i++ {
			closed.merge(closedLoop(srv.base, p, closed.attempted+open.attempted, cfg.seed, slice))
			open.merge(openLoop(srv.base, p, closed.attempted+open.attempted, cfg.seed+uint64(i), cfg.prof.openRate, slice))
		}
	} else {
		closed = closedLoop(srv.base, p, 0, cfg.seed, cfg.prof.window)
	}

	delta, cpu, rss, err := pr.stop()
	if err != nil {
		return nil, err
	}

	all := &loadResult{}
	all.merge(closed)
	if open != nil {
		all.merge(open)
		lat := latencies(open.obs)
		m.set("open_p50_ms", median(lat))
		m.set("open_p95_ms", percentile(lat, 0.95))
		late := make([]float64, len(open.obs))
		for i, o := range open.obs {
			late[i] = ms(o.late)
		}
		m.set("client.open_late_p95_ms", percentile(late, 0.95))
	}
	completed := float64(len(all.obs))
	windowMetrics(m, closed.obs, closed.elapsed, cpu, completed, rss)
	var bytes float64
	for _, o := range all.obs {
		bytes += float64(o.bytes)
	}
	m.set("server.resp_kb", bytes/completed/1024)
	layerMetricsFromScrape(delta, completed, m)
	clientMetrics(all.obs, m)
	return all, nil
}

func runChurn(cfg runConfig) (*workloadResult, error) {
	genes := cfg.prof.genes[cfg.workload]
	p := newPlan(cfg.workload, nil, cfg.seed)
	res := &workloadResult{
		Workload: cfg.workload, WorkloadSeed: cfg.seed, Genes: genes, ServerFlags: []string{},
		WindowSeconds: cfg.prof.window.Seconds(), Metrics: metrics{},
	}
	m := res.Metrics

	// setUp is core.New -> persistence attached -> priming reads answered
	// -> first checkpoint written.
	setUp := func() (*churnEnv, float64, error) {
		t0 := time.Now()
		env, err := setupChurn(cfg.root, genes, p.prime)
		return env, time.Since(t0).Seconds(), err
	}
	env, setupS, err := setUp()
	if err != nil {
		return nil, err
	}
	defer env.close()
	setups := []float64{setupS}
	edited, err := editedLoci(env.sys, cfg.seed)
	if err != nil {
		return nil, err
	}

	pr, err := startProbe(os.Getpid(), env.gather)
	if err != nil {
		return nil, err
	}
	run := env.run(p, cfg.seed, edited, cfg.prof.window, cfg.prof.refreshEvery, nil)
	d, cpu, rss, err := pr.stop()
	if err != nil {
		return nil, err
	}

	reads := float64(len(run.obs))
	windowMetrics(m, run.obs, run.elapsed, cpu, reads, rss)
	m.set("refresh_p50_ms", median(run.refreshMS))
	m.set("navigate.reindex_ms", median(run.reindexMS))
	m.set("mediator.read_during_refresh_p50_ms", median(run.duringMS))
	layerMetricsFromScrape(d, reads, m)
	refreshMetricsFromScrape(d, m)
	clientMetrics(run.obs, m)

	if cfg.trace {
		// The same workload again with spans on: the drop in read
		// throughput is what tracing costs.
		tr := newTracer()
		traced := env.run(p, cfg.seed, edited, cfg.prof.traceWindow, cfg.prof.refreshEvery, tr)
		run.errs = append(run.errs, traced.errs...)
		run.attempted += traced.attempted
		m.set("client.trace_overhead_pct", 100*(hitRate(run)-hitRate(traced))/hitRate(run))
		if err := tracePass(cfg, corpusFor(genes), p, tr); err != nil {
			return nil, err
		}
		res.spans = tr.spans
		traceMetrics(res.spans, m)
	}

	res.Attempted = run.attempted
	res.fail(run.errs)
	res.fail(env.verify(p, genes, run.sampleRows))
	env.close()
	for i := 1; i < cfg.prof.setupReps; i++ {
		debug.FreeOSMemory()
		e, secs, err := setUp()
		if err != nil {
			return nil, err
		}
		e.close()
		setups = append(setups, secs)
	}
	res.finish(run.obs, setups)
	return res, nil
}

// hitRate is a churn window's read throughput with the misses taken out:
// reads answered from the cache per second of the time not spent in a
// miss. Windows of different lengths hold different shares of misses, so
// only this part of the throughput compares between them.
func hitRate(r *churnResult) float64 {
	hits, busy := 0, r.elapsed
	for _, o := range r.obs {
		if o.class == "ask_miss" {
			busy -= o.lat
		} else {
			hits++
		}
	}
	return float64(hits) / busy.Seconds()
}

// printResult writes every metric of a result as `workload metric value unit`.
func printResult(spec *benchSpec, r *workloadResult) {
	for _, name := range r.Metrics.names() {
		unit, _ := spec.unit(name)
		val := "null"
		if v, ok := r.Metrics.get(name); ok {
			val = trimFloat(v)
		}
		fmt.Printf("%-15s %-38s %14s %s\n", r.Workload, name, val, unit)
	}
	fmt.Printf("%-15s attempted=%d failed=%d correct=%v samples=%v\n", r.Workload, r.Attempted, r.Failed, r.Correct, r.Samples)
	for _, f := range r.Failures {
		fmt.Printf("%-15s FAILURE %s\n", r.Workload, f)
	}
}
