package main

// testOnlyAllow names the production functions the testonly rule lets stand
// although no production file of this module references them, each with
// the reason it stays. Keys are types.Func.FullName or a package path.
var testOnlyAllow = map[string]string{
	"(*repro/internal/core.View).ByChromosome": "reorganizes an answer; exposed through annoda.System.Ask",
	"(*repro/internal/core.View).SortBy":       "reorganizes an answer; exposed through annoda.System.Ask",
	"(*repro/internal/core.View).Filter":       "reorganizes an answer; exposed through annoda.System.Ask",
	"(*repro/internal/core.View).WriteCSV":     "reorganizes an answer; exposed through annoda.System.Ask",
	"(*repro/internal/core.View).Summarize":    "reorganizes an answer; exposed through annoda.System.Ask",

	"(*repro/internal/sources/locuslink.DB).Update": "benchmark/churn.go edits LocusLink through it",
	"repro/internal/datagen.Shuffle":                "benchmark/gen.go permutes its workloads with it",

	"repro/internal/faults":                      "fault-injecting wrapper for the chaos tests",
	"repro/internal/analyzers/antest":            "fixture harness for the analyzer tests",
	"repro/internal/oem.DeepEqual":               "structural comparator the tests of many packages share",
	"(*repro/internal/obs.Exposition).Value":     "reads one sample of a parsed scrape; the obs and server tests check /metrics and /statsz against each other with it",
	"(*repro/internal/relstore.btreeNode).check": "B-tree invariant check for the property tests",

	"repro/internal/baselines/multidb.Figure5bProgram": "the paper's hand-written K2/Kleisli baseline",
	"(*repro/internal/gml.Global).Unplug":              "the inverse of PlugIn, for checking that unplugging a source changes no answer it did not feed",
}
