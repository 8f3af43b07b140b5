package analyzers

import (
	"go/ast"
	"go/types"
)

// FrozenMut reports mutations of frozen oem.Graphs at compile time. At
// runtime every mutator is guarded by mustMutable and panics on a frozen
// graph — this analyzer turns the panic into a vet report for the flows
// the epoch model actually produces:
//
//   - a graph on which Freeze() was called earlier in the function;
//   - a graph obtained from Manager.FusedGraph();
//   - the graph argument of a WithFusedGraph callback;
//   - the epoch graph reached through pinEpoch (ep.fs.graph);
//   - the translated population reached through translated (tl.graph),
//     which may be the memo shared by every fetch of the source.
//
// An epoch's provenance sets (ep.prov, what masks are made from) are frozen
// with it: an assignment into them or a delete from them is reported once
// the epoch came from pinEpoch or was handed to publishLocked. Importing out
// of a frozen graph — Import, ImportShared, ImportMasked with the frozen
// graph as the source argument — is reading, and fine.
//
// Aliases propagate through plain assignment; Clone() breaks the taint
// (that is the documented way to mutate a frozen world). The analysis is
// lexical and intra-function: it tracks source order, so mutating a graph
// before freezing it is fine, and it does not chase graphs across
// function boundaries.
var FrozenMut = &Analyzer{
	Name: "frozenmut",
	Doc:  "report mutations of frozen oem.Graphs instead of waiting for the runtime panic",
	Run:  runFrozenMut,
}

// graphMutators are the oem.Graph methods guarded by mustMutable: calling
// any of them on a frozen graph panics.
var graphMutators = map[string]bool{
	"NewInt": true, "NewReal": true, "NewString": true, "NewBool": true,
	"NewURL": true, "NewGif": true, "NewAtom": true, "NewComplex": true,
	"Import": true, "ImportShared": true, "ImportMasked": true, "AddRef": true, "SetRefs": true, "RemoveRef": true,
	"RemoveRefs": true, "RemoveSubtree": true, "SetRoot": true,
	"SortRefs": true, "putRaw": true, "Absorb": true,
}

func runFrozenMut(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &fmWalker{
				pass:            pass,
				frozen:          map[types.Object]string{},
				epochVars:       map[types.Object]bool{},
				translationVars: map[types.Object]bool{},
			}
			w.walk(fd.Body)
		}
	}
	return nil
}

type fmWalker struct {
	pass *Pass
	// frozen maps a variable to a short description of why it is frozen.
	frozen map[types.Object]string
	// epochVars holds variables assigned from pinEpoch() or passed to
	// publishLocked(); their .fs.graph field is the published, frozen epoch
	// graph and their .prov sets are frozen with it.
	epochVars map[types.Object]bool
	// translationVars holds variables assigned from translated(); their
	// .graph field is the (possibly memoized, then frozen) population.
	translationVars map[types.Object]bool
}

func (w *fmWalker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

func (w *fmWalker) call(call *ast.CallExpr) {
	// delete(ep.prov.atoms[c], oid) / clear(ep.prov.atoms): builtins have
	// no *types.Func.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(call.Args) > 0 {
		w.provWrite(call.Args[0])
		return
	}
	fn := calleeFunc(w.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)

	// m.publishLocked(s): s is the serving epoch from here on.
	if fn.Name() == "publishLocked" && len(call.Args) == 1 {
		if obj := w.exprObj(call.Args[0]); obj != nil {
			w.epochVars[obj] = true
		}
		return
	}

	// g.Freeze() taints g from here on.
	if (fn.Name() == "Freeze" || fn.Name() == "FreezeUnindexed") && isGraphMethod(fn) && sel != nil {
		if obj := w.exprObj(sel.X); obj != nil {
			w.frozen[obj] = "frozen by Freeze earlier in this function"
		}
		return
	}

	// WithFusedGraph(func(g *oem.Graph, ...) ...): the callback's graph
	// parameter is the published, frozen snapshot.
	if fn.Name() == "WithFusedGraph" {
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok || len(lit.Type.Params.List) == 0 {
				continue
			}
			for _, name := range lit.Type.Params.List[0].Names {
				if obj := w.pass.TypesInfo.Defs[name]; obj != nil && isGraphPtr(obj.Type()) {
					w.frozen[obj] = "the WithFusedGraph callback graph (published snapshot)"
				}
			}
		}
		return
	}

	// Mutator on a frozen graph.
	if graphMutators[fn.Name()] && isGraphMethod(fn) && sel != nil {
		if why, ok := w.frozenExpr(sel.X); ok {
			w.pass.Reportf(call.Pos(),
				"%s on a frozen graph: %s; at runtime this panics — mutate a Clone instead", fn.Name(), why)
		}
	}
}

// provWrite reports e when it denotes (part of) a published epoch's
// provenance: ep.prov, ep.prov.atoms[c], ep.prov.rivals[c][r], ...
func (w *fmWalker) provWrite(e ast.Expr) {
	for x := e; ; {
		switch n := ast.Unparen(x).(type) {
		case *ast.IndexExpr:
			x = n.X
		case *ast.SelectorExpr:
			if obj := w.exprObj(n.X); n.Sel.Name == "prov" && obj != nil && w.epochVars[obj] {
				w.pass.Reportf(e.Pos(), "write to the provenance of a published epoch: readers build masks from it with no lock held — compute it before publishLocked")
				return
			}
			x = n.X
		default:
			return
		}
	}
}

func (w *fmWalker) assign(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		w.provWrite(lhs)
	}
	// Multi-value assignments from the epoch accessors.
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if fn := calleeFunc(w.pass.TypesInfo, call); fn != nil {
				switch fn.Name() {
				case "pinEpoch":
					// ep, ... := m.pinEpoch(): ep.fs.graph is frozen.
					if obj := w.exprObj(as.Lhs[0]); obj != nil {
						w.epochVars[obj] = true
					}
					return
				case "translated":
					// tl, ... := m.translated(...): tl.graph is shared.
					if obj := w.exprObj(as.Lhs[0]); obj != nil {
						w.translationVars[obj] = true
					}
					return
				case "FusedGraph":
					// g, stats, err := m.FusedGraph(): g is frozen.
					if obj := w.exprObj(as.Lhs[0]); obj != nil && isGraphPtr(obj.Type()) {
						w.frozen[obj] = "obtained from FusedGraph (published snapshot)"
					}
					return
				}
			}
		}
	}
	// Alias propagation and taint clearing: an assignment re-derives the
	// LHS's frozen state from its RHS (Clone(), NewGraph(), a fresh
	// build all clear it; a frozen RHS carries it over).
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		obj := w.exprObj(lhs)
		if obj == nil || !isGraphPtr(obj.Type()) {
			continue
		}
		if why, ok := w.frozenExpr(as.Rhs[i]); ok {
			w.frozen[obj] = why
		} else {
			delete(w.frozen, obj)
		}
	}
}

// frozenExpr reports whether e denotes a frozen graph, with a reason.
func (w *fmWalker) frozenExpr(e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := w.pass.TypesInfo.Uses[e]; obj != nil {
			if why, ok := w.frozen[obj]; ok {
				return why, true
			}
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "graph" {
			// tl.graph where tl came from translated.
			if obj := w.exprObj(e.X); obj != nil && w.translationVars[obj] {
				return "the translated population's graph (translated hands out the shared memo)", true
			}
			// ep.fs.graph where ep came from pinEpoch.
			if fs, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok && fs.Sel.Name == "fs" {
				if obj := w.exprObj(fs.X); obj != nil && w.epochVars[obj] {
					return "the pinned epoch's graph (pinEpoch publishes frozen graphs)", true
				}
			}
		}
	}
	return "", false
}

// exprObj resolves the variable an identifier expression denotes.
func (w *fmWalker) exprObj(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
			return obj
		}
		return w.pass.TypesInfo.Defs[id]
	}
	return nil
}

// isGraphMethod reports whether fn is a method on internal/oem's Graph.
func isGraphMethod(fn *types.Func) bool {
	return recvNamed(fn, "Graph", "internal/oem")
}

// isGraphPtr reports whether t is *oem.Graph.
func isGraphPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Graph" && pkgPathIn(named.Obj().Pkg().Path(), "internal/oem")
}
