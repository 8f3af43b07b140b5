package main

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestLinksNoBaselines: the server and the public annoda package link only
// the paper's system. Table 1's comparison systems and their SQL layer live
// under internal/baselines; the experiments and the CLI's sql and table1
// subcommands import them, nothing on the serving side does.
func TestLinksNoBaselines(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []string{"repro/cmd/annoda-server", "repro/annoda"} {
		linked := map[string]bool{}
		var walk func(path, from string)
		walk = func(path, from string) {
			if linked[path] {
				return
			}
			linked[path] = true
			if strings.HasPrefix(path, "repro/internal/baselines/") {
				t.Errorf("%s links %s (imported by %s)", start, path, from)
				return
			}
			pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, "repro")), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range pkg.Imports {
				if strings.HasPrefix(imp, "repro/") {
					walk(imp, path)
				}
			}
		}
		walk(start, "")
		// LocusLink keeps its records in relstore: the walk must reach it.
		if !linked["repro/internal/relstore"] {
			t.Errorf("%s: the import walk never reached repro/internal/relstore; it checks nothing", start)
		}
	}
}
