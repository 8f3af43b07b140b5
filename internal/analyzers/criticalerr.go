package analyzers

import (
	"go/ast"
	"go/types"
)

// CriticalErr is a scoped errcheck: it flags dropped error returns only
// for the calls whose lost errors have already shipped bugs in this
// repository (the snapstore prune path silently re-accumulating stale
// files when os.Remove failed; fsync'd WAL frames that were never known
// to have failed):
//
//   - os.Remove / os.RemoveAll
//   - (*os.File).Close and (*os.File).Sync
//   - (*snapstore.Section).AppendWAL
//   - (*wire.Encoder).Flush
//   - (*mediator.Manager).ProbeSource — a dropped probe error hides both
//     "the source is still down" and real re-admission failures from the
//     recovery loop
//
// A result is "dropped" when the call is an expression statement, a go
// statement, or a defer. Assigning the error — including explicitly to
// the blank identifier, `_ = f.Close()` — satisfies the check: the point
// is that discarding must be a visible decision, not an accident.
//
// One idiomatic exception: `defer f.Close()` and `defer os.Remove(path)`
// are accepted — deferred best-effort cleanup is the established idiom
// for read paths and temp files, and rewriting every one into a closure
// would add noise, not safety. Deferred Sync, AppendWAL, and Flush stay
// flagged: deferring those unchecked always loses a write-path error.
var CriticalErr = &Analyzer{
	Name: "criticalerr",
	Doc:  "check that error returns with a history of shipped bugs are never silently dropped",
	Run:  runCriticalErr,
}

func runCriticalErr(pass *Pass) error {
	check := func(call *ast.CallExpr, deferred bool, how string) {
		name, ok := criticalCall(pass.TypesInfo, call)
		if !ok {
			return
		}
		if deferred && (name == "(*os.File).Close" || name == "os.Remove" || name == "os.RemoveAll") {
			return // deferred best-effort cleanup idiom
		}
		pass.Reportf(call.Pos(),
			"%s error return of %s: check it or discard it explicitly with `_ =` (dropped returns here have shipped bugs before)", how, name)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					check(call, false, "dropped")
				}
			case *ast.DeferStmt:
				check(s.Call, true, "deferred call drops the")
			case *ast.GoStmt:
				check(s.Call, false, "go statement drops the")
			}
			return true
		})
	}
	return nil
}

// criticalCall reports whether call targets one of the monitored
// functions, returning a printable name.
func criticalCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	switch {
	case fn.Pkg() != nil && fn.Pkg().Path() == "os" && (fn.Name() == "Remove" || fn.Name() == "RemoveAll") && fn.Type().(*types.Signature).Recv() == nil:
		return "os." + fn.Name(), true
	case (fn.Name() == "Close" || fn.Name() == "Sync") && recvNamed(fn, "File", "os"):
		return "(*os.File)." + fn.Name(), true
	case fn.Name() == "AppendWAL" && recvNamed(fn, "Section", "internal/snapstore"):
		return "(*snapstore.Section).AppendWAL", true
	case fn.Name() == "Flush" && recvNamed(fn, "Encoder", "internal/wire"):
		return "(*wire.Encoder).Flush", true
	case fn.Name() == "ProbeSource" && recvNamed(fn, "Manager", "internal/mediator"):
		return "(*mediator.Manager).ProbeSource", true
	}
	return "", false
}
