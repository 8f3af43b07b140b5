// Command annoda-lint runs the repository's invariant analyzers
// (lockedcall, frozenmut, criticalerr, nowalltime — see
// internal/analyzers) over Go packages. Over ./..., it also runs testonly
// over all of them together, with the allowlist in allow.go.
//
// Usage:
//
//	annoda-lint ./...          # analyze packages, test files included
//	annoda-lint -list          # print the suite
//	annoda-lint -prom FILE     # validate FILE as a Prometheus /metrics scrape
//	annoda-lint -explain-shape FILE  # validate FILE as a /api/explain response
//
// Findings print as file:line:col: analyzer: message; the exit status is
// non-zero when any finding survives suppression. A finding is suppressed
// by a directive comment on its line or the line above:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analyzers"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annoda-lint: ")

	fs := flag.NewFlagSet("annoda-lint", flag.ExitOnError)
	listOnly := fs.Bool("list", false, "list the analyzers and exit")
	promFile := fs.String("prom", "", "validate FILE as Prometheus text exposition (a /metrics scrape) and exit")
	explainFile := fs.String("explain-shape", "", "validate FILE as a /api/explain JSON response and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: annoda-lint [-prom scrape.txt] [-explain-shape explain.json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *listOnly {
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", "testonly", "check that every production function is reached by production code (./... only)")
		return
	}
	if *promFile != "" {
		checkProm(*promFile)
		return
	}
	if *explainFile != "" {
		checkExplainShape(*explainFile)
		return
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	units, err := analyzers.Load(".", patterns)
	if err != nil {
		log.Fatal(err)
	}
	found := 0
	for _, u := range units {
		diags, err := u.Diagnostics(analyzers.All())
		if err != nil {
			log.Fatalf("%s: %v", u.PkgPath, err)
		}
		for _, d := range diags {
			fmt.Println(analyzers.FormatDiagnostic(u.Fset, d))
		}
		found += len(diags)
	}
	// testonly needs every unit of the module at once: only a run over
	// ./... has them.
	for _, d := range testOnly(patterns, units) {
		if d.Pos.IsValid() {
			fmt.Println(analyzers.FormatDiagnostic(units[0].Fset, d))
		} else {
			fmt.Printf("%s: %s\n", d.Category, d.Message)
		}
		found++
	}
	if found > 0 {
		log.Fatalf("%d finding(s)", found)
	}
}

// testOnly runs the testonly rule when the run covers the whole module.
func testOnly(patterns []string, units []*analyzers.Unit) []analyzers.Diagnostic {
	if len(patterns) != 1 || patterns[0] != "./..." {
		return nil
	}
	return analyzers.TestOnly(units, testOnlyAllow)
}

// checkProm validates a saved /metrics scrape as Prometheus text
// exposition format 0.0.4 — the CI hook that keeps the hand-rolled
// exposition writer honest against a live server.
func checkProm(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	exp, err := obs.ValidateExposition(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	families := map[string]bool{}
	for _, s := range exp.Samples {
		families[s.Name] = true
	}
	fmt.Printf("%s: valid exposition, %d samples across %d series, %d TYPE families\n",
		path, len(exp.Samples), len(families), len(exp.Types))
}

// checkExplainShape validates a saved POST /api/explain response body — the
// CI hook that keeps the introspection wire shape honest against a live
// server. It decodes strictly (unknown top-level fields fail) and requires
// the fields an operator tool would navigate by.
func checkExplainShape(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var resp struct {
		Explain *struct {
			Query      string `json:"query"`
			PlanTree   string `json:"plan_tree"`
			PathReason string `json:"path_reason"`
			Sources    []struct {
				Source string `json:"source"`
				Reason string `json:"reason"`
			} `json:"sources"`
			Analyze *struct {
				Cardinalities struct {
					RootsMatched int `json:"roots_matched"`
					WhereEvals   int `json:"where_evals"`
				} `json:"cardinalities"`
				Fetched map[string]int `json:"fetched"`
				Stages  []struct {
					Stage  string `json:"stage"`
					Micros int64  `json:"micros"`
				} `json:"stages"`
			} `json:"analyze"`
		} `json:"explain"`
		Text string `json:"text"`
	}
	dec := json.NewDecoder(f)
	if err := dec.Decode(&resp); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	e := resp.Explain
	switch {
	case e == nil:
		log.Fatalf("%s: no explain object", path)
	case e.Query == "" || e.PlanTree == "" || e.PathReason == "":
		log.Fatalf("%s: explain lacks query/plan_tree/path_reason", path)
	case len(e.Sources) == 0:
		log.Fatalf("%s: explain lists no sources", path)
	case resp.Text == "":
		log.Fatalf("%s: rendered text form absent", path)
	}
	for _, s := range e.Sources {
		if s.Source == "" || s.Reason == "" {
			log.Fatalf("%s: source decision lacks source/reason: %+v", path, s)
		}
	}
	analyzed := "plan-only"
	if a := e.Analyze; a != nil {
		analyzed = "analyzed"
		if len(a.Stages) != 4 || len(a.Fetched) == 0 {
			log.Fatalf("%s: analyze block lacks stages/fetched", path)
		}
		if a.Cardinalities.RootsMatched == 0 {
			log.Fatalf("%s: analyze cardinalities are zero", path)
		}
	}
	fmt.Printf("%s: valid %s explain response, %d sources\n", path, analyzed, len(e.Sources))
}
