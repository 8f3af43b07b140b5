package experiments

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryMatchesIndex: every registered experiment has a row in
// EXPERIMENTS.md's index table, and every row names a registered
// experiment or a retired one, so the registry and the docs cannot drift
// apart. A retired row's successors must exist: each `Benchmark…` is
// declared in a _test.go of the module, and every other name is a
// workload or a per-layer or end-to-end line of BENCHMARK.json.
func TestRegistryMatchesIndex(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	index, _, _ := strings.Cut(string(doc), "\n## ") // the table precedes the first section
	rows := map[string]bool{}                        // id → retired
	successors := map[string][]string{}
	quoted := regexp.MustCompile("`([^`]+)`")
	for _, m := range regexp.MustCompile(`(?m)^\|\s*(E\d+)\s*\|\s*([^|]*?)\s*\|.*\|(.*)\|$`).FindAllStringSubmatch(index, -1) {
		id := m[1]
		if _, dup := rows[id]; dup {
			t.Errorf("EXPERIMENTS.md indexes %s twice", id)
		}
		rows[id] = m[2] == "retired"
		if rows[id] {
			for _, n := range quoted.FindAllStringSubmatch(m[3], -1) {
				successors[id] = append(successors[id], n[1])
			}
		}
	}
	registered := map[string]bool{}
	for _, e := range All() {
		registered[e.ID] = true
		if retired, ok := rows[e.ID]; !ok {
			t.Errorf("%s is registered but has no row in EXPERIMENTS.md's index", e.ID)
		} else if retired {
			t.Errorf("%s is registered but EXPERIMENTS.md's index retires it", e.ID)
		}
		if Lookup(e.ID) != e {
			t.Errorf("Lookup(%q) does not return the registered experiment", e.ID)
		}
		if len(e.Cases) == 0 {
			t.Errorf("%s has no cases", e.ID)
		}
	}
	for id, retired := range rows {
		if !retired && !registered[id] {
			t.Errorf("EXPERIMENTS.md indexes %s, which is not registered", id)
		}
		if retired && len(successors[id]) == 0 {
			t.Errorf("EXPERIMENTS.md retires %s without naming a successor", id)
		}
	}

	benchmarks := declaredBenchmarks(t, "../..")
	lines := benchmarkLines(t, "../../BENCHMARK.json")
	for id, names := range successors {
		for _, n := range names {
			if strings.HasPrefix(n, "Benchmark") {
				if !benchmarks[n] {
					t.Errorf("%s's successor %s is declared in no _test.go of the module", id, n)
				}
			} else if !lines[n] {
				t.Errorf("%s's successor %q is no workload or line of BENCHMARK.json", id, n)
			}
		}
	}
}

// declaredBenchmarks returns the Benchmark functions declared in the
// module's _test.go files. benchmark/ is a module of its own and is skipped.
func declaredBenchmarks(t *testing.T, root string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	found := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "benchmark")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			found[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// benchmarkLines returns BENCHMARK.json's workload, end-to-end and
// per-layer names.
func benchmarkLines(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var spec struct {
		Workloads named
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, list := range []named{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, n := range list {
			names[n.Name] = true
		}
	}
	return names
}
