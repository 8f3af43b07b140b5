package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// figure5bQuery is the paper's Figure 5(b) question in global Lorel: genes
// annotated in GO that have no OMIM disease.
const figure5bQuery = `select G from ANNODA-GML.Gene G where exists G.Annotation and not exists G.Disease`

// durations matches the stage timings of a query's stats, which vary from
// run to run.
var durations = regexp.MustCompile(`=[0-9.]+(ns|µs|ms|s)\b`)

// TestGolden runs subcommands over a 60-gene corpus and compares what they
// print with testdata/<name>.golden, timings masked as "=<d>". After an
// intended change, regenerate a golden from
// `go run ./cmd/annoda -genes 60 <args>`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"corpus", []string{"corpus"}},
		{"oml", []string{"oml", "LocusLink", "0"}}, // the Figure 3 text
		{"query", []string{"query", figure5bQuery}},
		{"table1", []string{"table1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(append([]string{"-genes", "60"}, tc.args...), &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := durations.ReplaceAllString(stdout.String(), "=<d>"); got != string(want) {
				t.Errorf("output differs from testdata/%s.golden\n got:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}

// TestRunRejectsBadArgs: a bad command line is a usage error (main exits
// 2 on it) and prints nothing to stdout.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-genes", "0", "corpus"}, "-genes must be at least 1, got 0"},
		{[]string{"-genes", "-3", "corpus"}, "-genes must be at least 1, got -3"},
		{[]string{"-genes", "60", "nosuch"}, `unknown subcommand "nosuch"`},
		{[]string{"-genes", "60", "snapshot", "save"}, "needs -data-dir"},
		{nil, "no subcommand"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want a usage error containing %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q", tc.args, stdout.String())
		}
	}
}
