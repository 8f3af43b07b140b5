package analyzers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/antest"
)

func TestFrozenMut(t *testing.T) {
	antest.Run(t, antest.TestData(t), analyzers.FrozenMut,
		"frozenmut/a", "frozenmut/epoch")
}

func TestCriticalErr(t *testing.T) {
	antest.Run(t, antest.TestData(t), analyzers.CriticalErr,
		"criticalerr/a")
}

func TestNoWallTime(t *testing.T) {
	antest.Run(t, antest.TestData(t), analyzers.NoWallTime,
		"nowalltime/internal/wire", "nowalltime/internal/fused", "nowalltime/internal/mediator",
		"nowalltime/internal/obs", "nowalltime/server")
}

// TestTestOnly: in the fixture module a method only tests call and a
// function only itself calls are reported, and so is a test-only Get on a
// type that implements no interface, although an interface declares a Get;
// a method that implements an interface, main, init and an allowlisted
// function are not, and a stale allowlist entry is.
func TestTestOnly(t *testing.T) {
	units, err := analyzers.Load(filepath.Join(antest.TestData(t), "src", "testonly"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range analyzers.TestOnly(units, map[string]string{"testonly.kept": "r", "testonly.gone": "r"}) {
		got = append(got, d.Message)
	}
	const why = " is reached only by tests: delete it, or allowlist it with a reason"
	want := []string{"allowlist entry testonly.gone excuses nothing: remove it",
		"(testonly.square).area" + why, "(*testonly.box).Get" + why, "testonly.countdown" + why}
	if !slices.Equal(got, want) {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

// TestSuppressionDirectives pins the directive grammar: a reason is
// mandatory, and a directive that suppresses nothing is itself reported.
func TestSuppressionDirectives(t *testing.T) {
	const src = `package p

func f() {
	//lint:ignore criticalerr
	g()
	//lint:ignore somerule this one is consumed below
	g()
	//lint:ignore otherrule this one suppresses nothing
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := analyzers.ParseSuppressions(fset, []*ast.File{f})
	if len(sup.Malformed) != 1 || !strings.Contains(sup.Malformed[0].Message, "malformed") {
		t.Fatalf("want 1 malformed directive (missing reason), got %v", sup.Malformed)
	}

	// A finding on the line below the somerule directive (line 7) is
	// suppressed; the same finding is not covered by the otherrule
	// directive two lines further down.
	line7 := posOnLine(fset, f, 7)
	if !sup.Suppressed("somerule", line7) {
		t.Error("directive on the preceding line did not suppress")
	}
	if sup.Suppressed("unrelated", line7) {
		t.Error("directive for a different analyzer suppressed")
	}

	unused := sup.Unused()
	if len(unused) != 1 || !strings.Contains(unused[0].Message, "unused //lint:ignore otherrule") {
		t.Fatalf("want exactly the otherrule directive reported unused, got %v", unused)
	}
}

// posOnLine returns some position on the given 1-based line of f.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}
