// Package antest is a fixture harness for the annoda-lint analyzers in
// the style of golang.org/x/tools/go/analysis/analysistest, rebuilt on
// the standard library (the module is dependency-free by constraint).
//
// A fixture is one directory under testdata/src/<name> holding one
// package. Expected findings are written as trailing comments on the
// offending line:
//
//	g.SetRoot("r", id) // want `SetRoot on a frozen graph`
//
// Each backquoted or double-quoted pattern is a regexp that must match
// one diagnostic reported on that line; diagnostics with no matching
// pattern, and patterns with no matching diagnostic, fail the test.
// Fixture packages may import real repository packages (repro/internal/...)
// — they are typechecked from source — so rules keyed on concrete types
// (oem.Graph, snapstore.Section, wire.Encoder) are exercised against the
// real declarations.
package antest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyzers"
)

// TestData returns the absolute path of the calling package's testdata
// directory (go test runs with the package directory as cwd).
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// One shared fset+importer across all fixtures in the process: the source
// importer caches typechecked dependencies (oem, snapstore, wire, ...),
// so later fixtures reuse earlier work.
var (
	loadOnce sync.Once
	fset     *token.FileSet
	imp      types.Importer
)

func sharedImporter() (*token.FileSet, types.Importer) {
	loadOnce.Do(func() {
		fset = token.NewFileSet()
		imp = importer.ForCompiler(fset, "source", nil)
	})
	return fset, imp
}

// Run loads each fixture (a directory under testdata/src, named with its
// slash-separated relative path, which doubles as the fixture package's
// import path) and checks the analyzer's findings against the fixture's
// want comments.
func Run(t *testing.T, testdata string, an *analyzers.Analyzer, fixtures ...string) {
	t.Helper()
	for _, fix := range fixtures {
		t.Run(strings.ReplaceAll(fix, "/", "_"), func(t *testing.T) {
			runFixture(t, testdata, an, fix)
		})
	}
}

func runFixture(t *testing.T, testdata string, an *analyzers.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(fixture))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("fixture %s: no Go files in %s", fixture, dir)
	}

	fset, imp := sharedImporter()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("fixture %s: %v", fixture, err)
		}
		files = append(files, f)
	}
	info := analyzers.NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(fixture, fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s: typecheck: %v", fixture, err)
	}

	diags, err := analyzers.RunAnalyzers(fset, files, pkg, info, []*analyzers.Analyzer{an}, nil)
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}

	wants := parseWants(t, fset, files)

	// Match diagnostics against wants line by line.
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := lineKey(pos.Filename, pos.Line)
		if !consumeWant(wants[key], d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s: %s", pos.Filename, pos.Line, d.Category, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: missing diagnostic matching %q", key, w.re.String())
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func consumeWant(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// parseWants extracts `// want "pat"...` expectations, keyed by the line
// the comment sits on.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				pats, err := parsePatterns(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				key := lineKey(pos.Filename, pos.Line)
				for _, p := range pats {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}

// parsePatterns splits a want payload into its quoted patterns: a
// sequence of double-quoted (Go escaping) or backquoted strings.
func parsePatterns(s string) ([]string, error) {
	var pats []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return pats, nil
		}
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quoted pattern in %q", s)
			}
			p, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			pats = append(pats, p)
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquoted pattern in %q", s)
			}
			pats = append(pats, s[1:end+1])
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("pattern must be quoted or backquoted: %q", s)
		}
	}
}
