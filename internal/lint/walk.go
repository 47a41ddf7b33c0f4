package lint

import (
	"go/ast"
	"go/types"

	"rapid/internal/lint/analysis"
)

// funcIndex maps every function and method *declared in the package*
// to its AST, so contract analyzers can chase calls through
// same-package helpers. Cross-package callees have no body here —
// export data carries signatures only — which is fine: the contracts
// being enforced name specific foreign types (metrics.Collector,
// sim.Engine) whose *touch points* are visible at the call site, and
// same-package plumbing is where a violation can otherwise hide.
type funcIndex map[*types.Func]*ast.FuncDecl

func indexFuncs(pass *analysis.Pass) funcIndex {
	idx := make(funcIndex)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// callee resolves the static callee of a call expression, or nil for
// calls through function values, interface methods, conversions and
// builtins — sites the walker cannot see through (the suppression
// comment covers deliberate indirection).
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// walkReachable visits every AST node of start's body and of every
// same-package function statically reachable from it, calling visit
// with the call chain ("ExecuteShard → drain → fold") that led there.
// Each function body is visited at most once.
func walkReachable(pass *analysis.Pass, idx funcIndex, start *ast.FuncDecl, visit func(chain string, n ast.Node)) {
	type item struct {
		decl  *ast.FuncDecl
		chain string
	}
	startFn, _ := pass.TypesInfo.Defs[start.Name].(*types.Func)
	visited := map[*types.Func]bool{startFn: true}
	queue := []item{{start, start.Name.Name}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		ast.Inspect(it.decl.Body, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			visit(it.chain, n)
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := callee(pass.TypesInfo, call); fn != nil && !visited[fn] {
					if decl, ok := idx[fn]; ok {
						visited[fn] = true
						queue = append(queue, item{decl, it.chain + " → " + fn.Name()})
					}
				}
			}
			return true
		})
	}
}

// namedType returns the defined (possibly pointer-wrapped) type of t,
// unwrapping pointers and aliases, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isType reports whether t (through pointers/aliases) is the defined
// type pkgName.typeName. Matching is by package *name*, not import
// path, so the contract analyzers work identically on the real
// rapid/internal/... packages and on the self-contained fixture
// packages under testdata.
func isType(t types.Type, pkgName, typeName string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// isPkgPathType matches by full import path instead of package name,
// for stdlib types (math/rand.Rand) that fixtures import for real.
func isPkgPathType(t types.Type, pkgPath, typeName string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == typeName
}

// hasMethod reports whether the method set of *T includes a method
// with the given name declared in T's own package.
func hasMethod(named *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// methodDecl finds the declared method name on type named (value or
// pointer receiver) in the index.
func methodDecl(idx funcIndex, named *types.Named, name string) *ast.FuncDecl {
	for fn, decl := range idx {
		if fn.Name() != name {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if namedType(sig.Recv().Type()) == namedType(named) {
			//rapidlint:allow maporder — a type declares a method name at most once, so at most one entry matches
			return decl
		}
	}
	return nil
}

// rootIdent peels selectors and indexes off an expression and returns
// the identifier at its base, or nil (calls, literals…).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
