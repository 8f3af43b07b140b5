package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Unit is one typechecked analysis unit: a package's production files, a
// package including its in-package test files, or an external _test
// package. Test-variant units restrict reporting to the test files so the
// production files are not reported twice.
type Unit struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info

	// reportFiles, when non-nil, names the files diagnostics may be
	// reported in (absolute paths).
	reportFiles map[string]bool
}

// ReportFile implements the RunAnalyzers filter for this unit.
func (u *Unit) ReportFile(filename string) bool {
	if u.reportFiles == nil {
		return true
	}
	return u.reportFiles[filename]
}

// Diagnostics runs the analyzers over this unit.
func (u *Unit) Diagnostics(as []*Analyzer) ([]Diagnostic, error) {
	return RunAnalyzers(u.Fset, u.Files, u.Pkg, u.Info, as, u.ReportFile)
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// Load enumerates the packages matched by patterns (via `go list -json`,
// run in dir), parses and typechecks each — production files, in-package
// test variant, and external test package — and returns the units ready
// for analysis. Typechecking resolves imports from source through the
// go/importer "source" importer, so the loader needs no export data, no
// network, and no dependencies beyond the go command itself.
func Load(dir string, patterns []string) ([]*Unit, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil)

	var units []*Unit
	for _, lp := range pkgs {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by annoda-lint", lp.ImportPath)
		}
		if len(lp.GoFiles) == 0 && len(lp.TestGoFiles) == 0 && len(lp.XTestGoFiles) == 0 {
			continue
		}

		// Production unit.
		if len(lp.GoFiles) > 0 {
			u, err := typecheckUnit(fset, src, lp.ImportPath, lp.Dir, lp.GoFiles, nil)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}

		// In-package test variant: production + test files, reporting
		// only in the test files.
		if len(lp.TestGoFiles) > 0 {
			all := append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
			u, err := typecheckUnit(fset, src, lp.ImportPath, lp.Dir, all, lp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}

		// External test package. Its import of the package under test
		// resolves through the shared source importer like any other
		// import, so type identities line up with transitive imports of
		// the same package. (Consequence: an xtest cannot see
		// export_test.go symbols here — the repo has none; if one ever
		// appears, this typecheck will fail loudly, not skew silently.)
		if len(lp.XTestGoFiles) > 0 {
			xu, err := typecheckUnit(fset, src, lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles, nil)
			if err != nil {
				return nil, err
			}
			units = append(units, xu)
		}
	}
	return units, nil
}

// typecheckUnit parses the named files (relative to dir) and typechecks
// them as one package. reportOnly, when non-empty, restricts the unit's
// diagnostic reporting to those files.
func typecheckUnit(
	fset *token.FileSet,
	imp types.Importer,
	pkgPath, dir string,
	fileNames, reportOnly []string,
) (*Unit, error) {
	files, err := parseFiles(fset, dir, fileNames)
	if err != nil {
		return nil, err
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	u := &Unit{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, Info: info}
	if len(reportOnly) > 0 {
		u.reportFiles = map[string]bool{}
		for _, f := range reportOnly {
			u.reportFiles[absJoin(dir, f)] = true
		}
	}
	return u, nil
}

// NewTypesInfo allocates a types.Info with every map the analyzers read.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// parseFiles parses the named files (relative to dir unless absolute)
// with comments, as analyzers and suppression directives need them.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := absJoin(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func absJoin(dir, name string) string {
	if filepath.IsAbs(name) {
		return name
	}
	return filepath.Join(dir, name)
}

// goList runs `go list -json` over the patterns and decodes the stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := stderr.String()
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %v: %s", patterns, msg)
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs = append(pkgs, &lp)
	}
	return pkgs, nil
}

// FormatDiagnostic renders one finding the way go vet does, with the
// position made relative to the current directory when possible.
func FormatDiagnostic(fset *token.FileSet, d Diagnostic) string {
	pos := fset.Position(d.Pos)
	name := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && filepath.IsLocal(rel) {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", name, pos.Line, pos.Column, d.Category, d.Message)
}
