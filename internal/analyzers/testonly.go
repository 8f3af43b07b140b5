package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// TestOnly reports each function or method of a production file that no
// production file but its own body references: code only tests reach. It
// needs the whole module, so it runs standalone only. Exempt are main, init,
// a method whose receiver type (or a pointer to it) implements an interface
// declaring it (dispatch may reach it) and allow, keyed by
// types.Func.FullName or package path, each with its reason. An allow entry
// that excuses nothing is reported too.
func TestOnly(units []*Unit, allow map[string]string) []Diagnostic {
	decls, funcs := map[string]*ast.FuncDecl{}, map[string]*types.Func{}
	used, seen := map[string]bool{}, map[*types.Package]bool{}
	// ifaces: method name -> the interfaces declaring it.
	ifaces, seenIface := map[string][]*types.Interface{}, map[*types.Interface]bool{}
	addMethods := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seenIface[it] {
			seenIface[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				name := it.Method(i).Name()
				ifaces[name] = append(ifaces[name], it)
			}
		}
	}
	dispatched := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, n := range p.Scope().Names() {
			addMethods(p.Scope().Lookup(n).Type())
		}
		for _, q := range p.Imports() {
			if !seen[q] {
				seen[q] = true
				walk(q)
			}
		}
	}
	addMethods(types.Universe.Lookup("error").Type())
	for _, u := range units {
		walk(u.Pkg)
		for _, tv := range u.Info.Types {
			addMethods(tv.Type)
		}
		for _, f := range u.Files {
			if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := u.Info.Defs[fd.Name].(*types.Func).Origin()
					self = fn.FullName()
					decls[self], funcs[self] = fd, fn
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := u.Info.Uses[id].(*types.Func); ok && fn.Origin().FullName() != self {
							used[fn.Origin().FullName()] = true
						}
					}
					return true
				})
			}
		}
	}
	var diags []Diagnostic
	excused := map[string]bool{}
	for key, fd := range decls {
		name, method := fd.Name.Name, fd.Recv != nil
		if used[key] || !method && (name == "main" || name == "init") || method && dispatched(funcs[key]) {
			continue
		}
		ok := false
		for k := range allow {
			if key == k || strings.Contains(key, k+".") {
				excused[k], ok = true, true
			}
		}
		if !ok {
			diags = append(diags, Diagnostic{Pos: fd.Name.Pos(), Category: "testonly",
				Message: key + " is reached only by tests: delete it, or allowlist it with a reason"})
		}
	}
	for k := range allow {
		if !excused[k] {
			diags = append(diags, Diagnostic{Category: "testonly", Message: "allowlist entry " + k + " excuses nothing: remove it"})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		return diags[i].Pos < diags[j].Pos || diags[i].Pos == diags[j].Pos && diags[i].Message < diags[j].Message
	})
	return diags
}
