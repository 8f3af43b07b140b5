// Package analyzers holds the annoda-lint suite: static analyzers that
// encode this repository's load-bearing invariants — the conventions no
// compiler checks and that have each already cost us a shipped bug or a
// runtime panic:
//
//   - lockedcall: *Locked functions are only called under a held lock (and
//     epochMu is never held across a blocking channel send).
//   - frozenmut: frozen oem.Graphs are never mutated (a compile-time
//     report instead of the runtime panic Freeze installs).
//   - criticalerr: error returns whose loss has shipped bugs before
//     (os.Remove, File.Sync/Close, Store.AppendWAL, wire.Encoder.Flush)
//     are never silently dropped.
//   - nowalltime: the byte-deterministic codec/fusion packages never read
//     wall-clock time or ambient randomness.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the suite can migrate onto the real
// framework mechanically if the module ever grows network access to fetch
// x/tools; today the build must be dependency-free, so the driver and the
// fixture harness are reimplemented on the standard library alone.
//
// Suppression: a finding is silenced by a directive comment on the same
// line or the line directly above it:
//
//	//lint:ignore <analyzer> <reason why this instance is safe>
//
// The reason is mandatory; a bare directive is itself reported.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static analysis pass. The shape matches
// x/tools/go/analysis.Analyzer minus facts and inter-analyzer deps, which
// this suite does not need.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package unit (a package, or a package plus its test
// files) through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one finding. The driver fills Category with the
	// analyzer name and applies suppression directives.
	Report func(Diagnostic)
}

// Reportf is a convenience wrapper over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// All returns the full annoda-lint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{LockedCall, FrozenMut, CriticalErr, NoWallTime}
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string // analyzer name, or "all"
	reason   string
	pos      token.Pos
	used     bool
}

// Suppressions indexes the //lint:ignore directives of one unit's files.
type Suppressions struct {
	fset *token.FileSet
	// byLine maps file:line (the line the directive is written on) to the
	// directives on that line.
	byLine map[string][]*ignoreDirective
	// Malformed holds directives missing an analyzer name or a reason;
	// the driver reports them so a bare //lint:ignore cannot silently
	// blanket-suppress.
	Malformed []Diagnostic
}

const ignorePrefix = "//lint:ignore"

// ParseSuppressions scans the files' comments for //lint:ignore
// directives. Files must have been parsed with comments.
func ParseSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, byLine: map[string][]*ignoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if name == "" || reason == "" {
					s.Malformed = append(s.Malformed, Diagnostic{
						Pos:      c.Pos(),
						Category: "lint",
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				p := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				s.byLine[key] = append(s.byLine[key], &ignoreDirective{
					analyzer: name, reason: reason, pos: c.Pos(),
				})
			}
		}
	}
	return s
}

// Suppressed reports whether a finding by the named analyzer at pos is
// covered by a directive on the same line or the line directly above.
func (s *Suppressions) Suppressed(analyzer string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range s.byLine[fmt.Sprintf("%s:%d", p.Filename, line)] {
			if d.analyzer == analyzer || d.analyzer == "all" {
				d.used = true
				return true
			}
		}
	}
	return false
}

// Unused returns a diagnostic for every directive that suppressed
// nothing: stale suppressions must not outlive the finding they excuse.
func (s *Suppressions) Unused() []Diagnostic {
	var out []Diagnostic
	for _, ds := range s.byLine {
		for _, d := range ds {
			if !d.used {
				out = append(out, Diagnostic{
					Pos:      d.pos,
					Category: "lint",
					Message:  fmt.Sprintf("unused //lint:ignore %s directive (nothing to suppress here)", d.analyzer),
				})
			}
		}
	}
	return out
}

// RunAnalyzers runs the given analyzers over one typechecked unit,
// applying suppression directives, and returns the surviving diagnostics
// sorted by position. reportFile, when non-nil, restricts reporting to
// files for which it returns true (used for test-variant units so the
// base files are not reported twice).
func RunAnalyzers(
	fset *token.FileSet,
	files []*ast.File,
	pkg *types.Package,
	info *types.Info,
	as []*Analyzer,
	reportFile func(filename string) bool,
) ([]Diagnostic, error) {
	sup := ParseSuppressions(fset, files)
	var diags []Diagnostic
	keep := func(d Diagnostic) bool {
		if reportFile == nil {
			return true
		}
		return reportFile(fset.Position(d.Pos).Filename)
	}
	for _, a := range as {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		pass.Report = func(d Diagnostic) {
			d.Category = a.Name
			if sup.Suppressed(a.Name, d.Pos) {
				return
			}
			if keep(d) {
				diags = append(diags, d)
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, d := range sup.Malformed {
		if keep(d) {
			diags = append(diags, d)
		}
	}
	for _, d := range sup.Unused() {
		if keep(d) {
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// pkgPathIn reports whether pkgPath is the scoped package itself or ends
// with "/"+suffix. The suffix form lets analysistest fixtures (whose
// import paths live under the analyzer's testdata tree) opt into a
// package-scoped rule by mirroring the path tail.
func pkgPathIn(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}
