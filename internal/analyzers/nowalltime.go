package analyzers

import (
	"go/ast"
	"strings"
)

// NoWallTime enforces the repo's two-tier clock policy.
//
// Tier 1 (repo-wide): internal/obs is the one sanctioned home for
// wall-clock reads. Every other production file must route timing through
// obs.Now / obs.Since instead of calling time.Now / time.Since /
// time.Until directly — a single funnel is what makes the clock
// swappable in tests and keeps instrumentation policy (monotonic reads,
// future sampling hooks) in one place.
//
// Tier 2 (deterministic scopes): the packages whose output is a tested
// byte-determinism contract — re-encoding a decoded checkpoint must be
// byte-identical, parallel fusion must be byte-equal to sequential, entity
// hashes must be stable across runs — must not read the clock AT ALL, not
// even through internal/obs: laundering time.Now through obs.Now does not
// make it deterministic. Any clock value in those paths either never
// reaches the output (dead weight) or breaks determinism.
//
// Deterministic scopes, whole packages (production files only; _test.go
// files are exempt everywhere — tests use fixed-seed rands, and timing
// assertions are their business): internal/wire, internal/delta,
// internal/snapstore, internal/oem and internal/fused, the fusion and the
// checkpoint payload. The mediator around them measures latencies and
// legitimately reads the clock (via obs).
//
// Additionally forbidden in the deterministic scopes: any import of
// math/rand or math/rand/v2, and maphash.MakeSeed (per-process random
// seeds).
var NoWallTime = &Analyzer{
	Name: "nowalltime",
	Doc:  "route wall-clock reads through internal/obs, and forbid any clock or ambient randomness in the byte-deterministic codec and fusion packages",
	Run:  runNoWallTime,
}

// nowallScopes lists the deterministic packages.
var nowallScopes = []string{"internal/wire", "internal/delta", "internal/snapstore", "internal/oem", "internal/fused"}

func runNoWallTime(pass *Pass) error {
	// internal/obs is the sanctioned clock home: its whole point is to be
	// the one place that calls time.Now.
	if pkgPathIn(pass.Pkg.Path(), "internal/obs") {
		return nil
	}
	strict := false
	for _, sc := range nowallScopes {
		strict = strict || pkgPathIn(pass.Pkg.Path(), sc)
	}
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			checkNoWallFile(pass, f, strict)
		}
	}
	return nil
}

func checkNoWallFile(pass *Pass, f *ast.File, strict bool) {
	if strict {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(),
					"import of %s in a byte-deterministic package: seeded determinism is not re-run determinism; derive values from the input instead", strings.Trim(imp.Path.Value, `"`))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		wallName := fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until"
		switch {
		case fn.Pkg().Path() == "time" && wallName:
			if strict {
				pass.Reportf(call.Pos(),
					"time.%s in a byte-deterministic package: encoded output must not depend on the wall clock", fn.Name())
			} else {
				pass.Reportf(call.Pos(),
					"time.%s outside internal/obs: route clock reads through obs.%s so the observability layer stays the single wall-clock authority", fn.Name(), fn.Name())
			}
		case strict && pkgPathIn(fn.Pkg().Path(), "internal/obs") && wallName:
			pass.Reportf(call.Pos(),
				"obs.%s in a byte-deterministic package: laundering the wall clock through internal/obs does not make the output deterministic", fn.Name())
		case strict && fn.Pkg().Path() == "hash/maphash" && fn.Name() == "MakeSeed":
			pass.Reportf(call.Pos(),
				"maphash.MakeSeed in a byte-deterministic package: per-process seeds break cross-run stability")
		}
		return true
	})
}
