package flatfile

import (
	"strings"
	"testing"
)

const oboSample = `format-version: 1.2
date: 2004-11-30

[Term]
id: GO:0003700
name: transcription factor activity
namespace: molecular_function
is_a: GO:0003677

[Term]
id: GO:0005515
name: protein binding
namespace: molecular_function
! a comment line
is_a: GO:0005488
is_a: GO:0003674
`

const emblSample = `ID: 164772
TI: FOSB PROTO-ONCOGENE
GS: FOSB
CD: 19q13.32
//
ID: 191170
TI: TUMOR PROTEIN P53
GS: TP53
GS: P53
CD: 17p13.1
//
`

func TestParseOBO(t *testing.T) {
	lib, err := Parse(strings.NewReader(oboSample), OBO)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.records) != 2 {
		t.Fatalf("Len = %d", len(lib.records))
	}
	r := lib.Get(0)
	if r.First("id") != "GO:0003700" {
		t.Errorf("id = %q", r.First("id"))
	}
	if r.First("name") != "transcription factor activity" {
		t.Errorf("name = %q", r.First("name"))
	}
	r2 := lib.Get(1)
	if got := r2.All("is_a"); len(got) != 2 || got[0] != "GO:0005488" {
		t.Errorf("is_a = %v", got)
	}
	// Header lines before the first stanza must be ignored.
	if len(r.All("format-version")) > 0 {
		t.Error("header leaked into record")
	}
	// Comment lines are skipped.
	if len(r2.All("!")) > 0 {
		t.Error("comment leaked")
	}
}

func TestParseEMBL(t *testing.T) {
	lib, err := Parse(strings.NewReader(emblSample), EMBL)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.records) != 2 {
		t.Fatalf("Len = %d", len(lib.records))
	}
	if lib.Get(1).First("TI") != "TUMOR PROTEIN P53" {
		t.Errorf("TI = %q", lib.Get(1).First("TI"))
	}
	if got := lib.Get(1).All("GS"); len(got) != 2 {
		t.Errorf("GS = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("noseparator\n//\n"), EMBL); err == nil {
		t.Error("expected separator error")
	}
}

func TestFirstAllHasCaseInsensitive(t *testing.T) {
	r := &Record{}
	r.Add("GS", "TP53")
	if r.First("gs") != "TP53" || r.All("Gs") == nil || len(r.All("gS")) != 1 {
		t.Error("tag matching should be case-insensitive")
	}
	if r.First("zz") != "" || r.All("zz") != nil {
		t.Error("missing tag handling wrong")
	}
}

func TestFindWithAndWithoutIndex(t *testing.T) {
	lib, err := Parse(strings.NewReader(emblSample), EMBL)
	if err != nil {
		t.Fatal(err)
	}
	// Unindexed scan path.
	got := lib.Find("GS", "p53")
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("scan Find = %v", got)
	}
	// Indexed path must agree.
	lib.BuildIndex("GS")
	got2 := lib.Find("GS", "P53")
	if len(got2) != 1 || got2[0] != 1 {
		t.Fatalf("indexed Find = %v", got2)
	}
}

func TestScanEarlyStop(t *testing.T) {
	lib, _ := Parse(strings.NewReader(emblSample), EMBL)
	n := 0
	lib.Scan(func(int, *Record) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("scan visited %d", n)
	}
}

func TestGetOutOfRange(t *testing.T) {
	lib, _ := Parse(strings.NewReader(""), EMBL)
	if lib.Get(-1) != nil || lib.Get(0) != nil {
		t.Error("out-of-range Get should be nil")
	}
}

func TestValueWithSeparator(t *testing.T) {
	// URLs contain ':'; only the first separator splits.
	src := "ID: 1\nURL: http://x.test/path\n//\n"
	lib, err := Parse(strings.NewReader(src), EMBL)
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Get(0).First("URL"); got != "http://x.test/path" {
		t.Errorf("URL = %q", got)
	}
}
