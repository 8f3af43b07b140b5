package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The four workloads. The names are the contract later issues cite.
const (
	wlHotAsk        = "hot_ask"
	wlDistinctQuery = "distinct_query"
	wlPointLookup   = "point_lookup"
	wlRefreshChurn  = "refresh_churn"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single source of metric names and
// units: a value the code records under a name the file does not list is a
// bug the smoke test catches.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// ownBounds are the end-to-end metrics that exist on one workload only.
// The driver needs every end_to_end metric on every workload, so
// BENCHMARK.json lists these under per_layer; run and repeat still treat
// them as end-to-end, with these bounds (error_ratio: any increase).
var ownBounds = map[string]float64{
	"open_p50_ms":    0.25,
	"open_p95_ms":    0.25,
	"refresh_p50_ms": 0.25,
	"error_ratio":    0,
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json next to the repository's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json beside a go.mod at or above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// unit returns the unit BENCHMARK.json records for a metric name.
func (s *benchSpec) unit(name string) (string, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

// endToEnd lists every end-to-end metric with its bound: the driver's, then
// the single-workload ones from ownBounds in per_layer order.
func (s *benchSpec) endToEnd() []metricSpec {
	out := append([]metricSpec(nil), s.EndToEnd...)
	for _, m := range s.PerLayer {
		if b, ok := ownBounds[m.Name]; ok {
			m.Bound = b
			out = append(out, m)
		}
	}
	return out
}

// profile sizes one run. The default is what BENCHMARK.json measures; quick
// is the smoke test's.
type profile struct {
	genes        map[string]int
	window       time.Duration // timed window per workload (hot_ask splits it in two phases)
	setupReps    int           // set-ups timed per run; setup_s is their median
	refreshEvery time.Duration // refresh_churn writer cadence
	openRate     float64       // hot_ask phase B arrivals per second
	traceK       int           // requests replayed by the trace pass
	traceWindow  time.Duration // refresh_churn traced window
}

func defaultProfile(window time.Duration) profile {
	return profile{
		genes: map[string]int{
			wlHotAsk: 1000, wlDistinctQuery: 1000, wlPointLookup: 10000, wlRefreshChurn: 1000,
		},
		window:       window,
		setupReps:    3,
		refreshEvery: 2 * time.Second,
		openRate:     300,
		traceK:       40,
		traceWindow:  6 * time.Second,
	}
}

func quickProfile() profile {
	return profile{
		genes: map[string]int{
			wlHotAsk: 200, wlDistinctQuery: 200, wlPointLookup: 200, wlRefreshChurn: 200,
		},
		window:       time.Second,
		setupReps:    1,
		refreshEvery: 250 * time.Millisecond,
		openRate:     300,
		traceK:       10,
		traceWindow:  time.Second,
	}
}
