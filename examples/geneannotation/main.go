// Gene annotation scenario: the workflows the paper's introduction
// motivates — cross-validating annotation between sources, surfacing the
// semantic conflicts, and inspecting individual objects through web-links
// (Figures 5(b) and 5(c)).
package main

import (
	"fmt"
	"log"

	"repro/annoda"
	"repro/internal/core"
)

func main() {
	corpus := annoda.GenerateCorpus(annoda.CorpusConfig{
		Seed: 7, Genes: 400, GoTerms: 150, Diseases: 150,
		ConflictRate: 0.25, MissingRate: 0.1,
	})
	sys, err := annoda.NewSystem(corpus, annoda.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Cross-validation: genes present in BOTH GO and OMIM, restricted
	// to human loci.
	view, stats, err := sys.Ask(core.Question{
		Include: []string{"GO", "OMIM"},
		Combine: core.CombineAll,
		Conditions: []core.Condition{
			{Field: "Organism", Op: "=", Value: "Homo sapiens"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("human genes annotated in GO AND associated with OMIM: %d\n", len(view.Rows))

	// 2. Conflicts: where the sources disagree, the mediator reconciles
	// and reports. Re-run under the union policy to see the raw values.
	fmt.Printf("conflicts reconciled by prefer-primary: %d\n", stats.NumConflicts())
	for i, c := range stats.ConflictList() {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", c.String())
	}
	unionSys, err := annoda.NewSystem(corpus, annoda.Options{Policy: annoda.PolicyUnion})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := unionSys.Query(
		`select G from ANNODA-GML.Gene G where exists G.Disease`)
	if err != nil {
		log.Fatal(err)
	}
	multi := 0
	for _, g := range res.Graph.Children(res.Answer, "G") {
		if len(res.Graph.Children(g, "Position")) > 1 {
			multi++
		}
	}
	fmt.Printf("under the union policy, %d genes expose multiple positions\n", multi)

	// 3. Interactive navigation: follow a view row's web-links (5(c)).
	if len(view.Rows) > 0 && len(view.Rows[0].WebLinks) > 0 {
		url := view.Rows[0].WebLinks[0]
		out, err := sys.ObjectView(url)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nobject view behind %s:\n%s", url, out)
	}
}
