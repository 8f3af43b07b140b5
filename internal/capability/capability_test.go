package capability

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
)

func fixture(t testing.TB) *Fixture {
	t.Helper()
	c := datagen.Generate(datagen.Config{
		Seed: 777, Genes: 80, GoTerms: 40, Diseases: 40,
		ConflictRate: 0.4, MissingRate: 0.1,
	})
	sys, err := core.New(c, mediator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFixture(sys)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// paperTable1 is the expected cell content, simplified to the discriminating
// phrase per cell, straight from the paper.
var paperTable1 = map[string][4]string{
	"Quality of user interfaces": {
		"Not a use level interface", "Require knowledge of SQL",
		"Require knowledge of SQL", "No require knowledge of SQL",
	},
	"Incorrectness due to inconsistent and incompatible data": {
		"No reconciliation", "No reconciliation",
		"reconciled and cleansed", "Reconciliation of results",
	},
	"Low-level treatment of data": {
		"Not supported", "Not supported", "Not supported", "Self-describing",
	},
	"Integration of self-generated data and extensibility": {
		"Not supported", "Not supported", "Supported", "Supported",
	},
	"Integration of new specialty evaluation functions": {
		"Not supported", "Not supported", "Not supported", "Supported",
	},
	"Loss of existing repositories": {
		"No archival", "No archival", "Archiving of data supported", "Not supported",
	},
	"Uncertainty of data": {
		"No provision", "No provision", "No provision", "No provision",
	},
}

func TestTableMatchesPaper(t *testing.T) {
	f := fixture(t)
	rows, err := BuildTable(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 15", len(rows))
	}
	byAspect := map[string]Row{}
	for _, r := range rows {
		byAspect[r.Aspect] = r
	}
	for aspect, want := range paperTable1 {
		row, ok := byAspect[aspect]
		if !ok {
			t.Errorf("missing row %q", aspect)
			continue
		}
		for i := range want {
			if !strings.Contains(row.Cells[i], want[i]) {
				t.Errorf("%s / %s:\n  got  %q\n  want substring %q", aspect, Systems[i], row.Cells[i], want[i])
			}
		}
	}
	// Behavioural rows are actually probed.
	probed := 0
	for _, r := range rows {
		if r.Probed {
			probed++
		}
	}
	if probed < 5 {
		t.Errorf("only %d probed rows", probed)
	}
}

func TestFormatRendersAllSystems(t *testing.T) {
	f := fixture(t)
	rows, err := BuildTable(f)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(rows)
	for _, sys := range Systems {
		if !strings.Contains(out, sys) {
			t.Errorf("format missing %s", sys)
		}
	}
	if !strings.Contains(out, "behavioural probes") {
		t.Error("format missing probe legend")
	}
}
