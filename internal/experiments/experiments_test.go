package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRegistryMatchesIndex: every registered experiment has a row in
// EXPERIMENTS.md's index table, and every row names a registered
// experiment, so the registry and the docs cannot drift apart.
func TestRegistryMatchesIndex(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	index, _, _ := strings.Cut(string(doc), "\n## ") // the table precedes the first section
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\|\s*(E\d+)\s*\|`).FindAllStringSubmatch(index, -1) {
		if rows[m[1]] {
			t.Errorf("EXPERIMENTS.md indexes %s twice", m[1])
		}
		rows[m[1]] = true
	}
	registered := map[string]bool{}
	for _, e := range All() {
		registered[e.ID] = true
		if !rows[e.ID] {
			t.Errorf("%s is registered but has no row in EXPERIMENTS.md's index", e.ID)
		}
		if Lookup(e.ID) != e {
			t.Errorf("Lookup(%q) does not return the registered experiment", e.ID)
		}
		if len(e.Cases) == 0 {
			t.Errorf("%s has no cases", e.ID)
		}
	}
	for id := range rows {
		if !registered[id] {
			t.Errorf("EXPERIMENTS.md indexes %s, which is not registered", id)
		}
	}
}
