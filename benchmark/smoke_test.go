package main

import (
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload on the quick profile (200 genes, one-second
// windows), measure pass and trace pass, through the real annoda-server,
// and holds the output to BENCHMARK.json: every workload runs correct,
// every metric the code records is named there with a unit, every metric
// named there is recorded, and the span file reads back into the same
// trace-pass metrics.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || names[m.Name] {
			t.Errorf("BENCHMARK.json: bad or repeated metric %q (unit %q)", m.Name, m.Unit)
		}
		names[m.Name] = true
	}
	for name := range ownBounds {
		if !names[name] {
			t.Errorf("ownBounds names %s, which BENCHMARK.json does not list", name)
		}
	}

	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{} // metrics some workload gave a value
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("BENCHMARK.json: bad workload name %q", w.Name)
		}
		r, err := runWorkload(runConfig{
			root: root, serverBin: bin, workload: w.Name, seed: 1, prof: quickProfile(), trace: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, r.Attempted, r.Failed, r.Failures)
		}
		for name, v := range r.Metrics {
			if !names[name] {
				t.Errorf("%s records %s, which BENCHMARK.json does not name", w.Name, name)
			}
			if v != nil {
				measured[name] = true
			}
		}
		for _, m := range spec.EndToEnd {
			if v, ok := r.Metrics.get(m.Name); !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}

		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := writeSpans(path, r.spans); err != nil {
			t.Fatal(err)
		}
		spans, err := readSpans(path)
		if err != nil {
			t.Fatalf("%s: span file does not parse: %v", w.Name, err)
		}
		ids := map[int64]bool{}
		for _, s := range spans {
			ids[s.Span] = true
		}
		for _, s := range spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", w.Name, s.Span, s.Name, s.Parent)
			}
			if s.EndNS < s.StartNS || s.Layer == "" {
				t.Errorf("%s: malformed span %+v", w.Name, s)
			}
		}
		again := metrics{}
		if w.Name == wlRefreshChurn { // its reindex time comes from the measure pass
			again["navigate.reindex_ms"] = r.Metrics["navigate.reindex_ms"]
		}
		traceMetrics(spans, again)
		for name, v := range again {
			got, ok := r.Metrics.get(name)
			if (v == nil) == ok || (v != nil && *v != got) {
				t.Errorf("%s: %s recomputed from the span file differs from the run's", w.Name, name)
			}
		}
	}
	for name := range names {
		// p99 needs 1000 samples, which a one-second window on a slow
		// machine may not give.
		if !measured[name] && name != "client.latency_p99_ms" {
			t.Errorf("BENCHMARK.json names %s, but no workload measured it", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Layer: "client", StartNS: 0, EndNS: 10e6},
		{Trace: 1, Span: 2, Parent: 1, Layer: "core", StartNS: 1e6, EndNS: 5e6},
		{Trace: 1, Span: 3, Parent: 1, Layer: "core", StartNS: 4e6, EndNS: 8e6}, // overlaps span 2 by 1 ms
		{Trace: 1, Span: 4, Parent: 2, Layer: "oem", StartNS: 2e6, EndNS: 3e6},
	}
	self := selfTimeByLayer(spans)
	if self["client"] != 3 || self["core"] != 7 || self["oem"] != 1 {
		t.Errorf("self times %v, want client 3, core 7, oem 1", self)
	}
}

func TestPlansAreSeeded(t *testing.T) {
	c := corpusFor(200)
	for _, w := range []string{wlHotAsk, wlDistinctQuery, wlPointLookup, wlRefreshChurn} {
		a, b, other := newPlan(w, c, 7), newPlan(w, c, 7), newPlan(w, c, 8)
		same, differs := true, false
		for i := 0; i < 200; i++ {
			same = same && a.at(i).id() == b.at(i).id()
			differs = differs || a.at(i).id() != other.at(i).id()
		}
		if !same || !differs {
			t.Errorf("%s: same seed same list = %v, other seed other list = %v", w, same, differs)
		}
	}
	// distinct_query must never repeat a question, and must keep its mix.
	p := newPlan(wlDistinctQuery, c, 1)
	seen := map[string]bool{}
	classes := map[string]int{}
	for i := 0; i < 60000; i++ {
		rq := p.at(i)
		if seen[rq.id()] {
			t.Fatalf("distinct_query repeats %s at request %d", rq.id(), i)
		}
		seen[rq.id()] = true
		classes[rq.class]++
	}
	if classes["lorel_epoch"] != 36000 || classes["ask_cond"] != 12000 ||
		classes["lorel_pipeline"] != 6000 || classes["lorel_epoch_full"] != 6000 {
		t.Errorf("distinct_query class mix %v", classes)
	}
}
