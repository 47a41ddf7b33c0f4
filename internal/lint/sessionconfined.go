package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"rapid/internal/lint/analysis"
)

// SessionConfined verifies the promise a router makes by implementing
// the routing.SessionConfined marker: its session-driven work reads
// and writes only its own node's state, the peer it is handed, and
// immutable run-wide state — so the parallel engine may run its
// sessions concurrently with sessions on other nodes. Two things
// falsify that promise statically and are reported:
//
//  1. a *rand.Rand field anywhere in the router's struct (random
//     streams come from the engine's shared stream map, and drawing
//     from one inside concurrent sessions both races and reorders the
//     stream);
//  2. any reference, from a router method or a same-package function
//     it reaches, to a package-level variable (shared mutable state).
//     Error sentinels (error-typed vars) are exempt by convention;
//     genuinely safe globals — a sync.Pool of value-agnostic scratch,
//     a read-only table — carry a //rapidlint:allow sessionconfined
//     annotation stating why.
//
// Detection of the marker is structural (a niladic method named
// SessionConfined), so fixture packages need no import of
// rapid/internal/routing.
var SessionConfined = &analysis.Analyzer{
	Name: "sessionconfined",
	Doc: `verify SessionConfined routers hold no shared mutable state

For every type carrying the SessionConfined marker method, reports
*rand.Rand struct fields and references to package-level variables
from any method or same-package helper it reaches.`,
	Run: runSessionConfined,
}

func runSessionConfined(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, false)
	idx := indexFuncs(pass)

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		named := namedType(obj.Type())
		if named == nil || named.Obj() != obj {
			continue
		}
		if !isMarkerMethod(named) {
			continue
		}
		checkRandFields(pass, sup, name, named, map[*types.Named]bool{})
		checkMethodReach(pass, sup, idx, name, named)
	}
	return nil, nil
}

// isMarkerMethod reports whether *T's method set has the niladic
// SessionConfined marker.
func isMarkerMethod(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		if m.Name() != "SessionConfined" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
	}
	return false
}

// checkRandFields reports *rand.Rand fields of the router struct,
// following embedded same-package structs.
func checkRandFields(pass *analysis.Pass, sup *suppressor, typeName string, named *types.Named, seen map[*types.Named]bool) {
	if seen[named] {
		return
	}
	seen[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isPkgPathType(f.Type(), "math/rand", "Rand") || isPkgPathType(f.Type(), "math/rand/v2", "Rand") {
			pos := f.Pos()
			sup.reportf(pos, "SessionConfined router %s holds a *rand.Rand field %q: engine random streams are shared mutable state — derive draws from per-call counters or drop the marker", typeName, f.Name())
		}
		if inner := namedType(f.Type()); inner != nil && inner.Obj().Pkg() == named.Obj().Pkg() {
			checkRandFields(pass, sup, typeName, inner, seen)
		}
	}
}

// checkMethodReach walks every declared method of the router and the
// same-package functions it reaches, reporting uses of package-level
// variables. Methods are visited in source order and each use site is
// reported once, so diagnostics are deterministic even when several
// methods reach the same helper.
func checkMethodReach(pass *analysis.Pass, sup *suppressor, idx funcIndex, typeName string, named *types.Named) {
	var methods []*ast.FuncDecl
	for fn, decl := range idx {
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || namedType(sig.Recv().Type()) != named {
			continue
		}
		methods = append(methods, decl)
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].Pos() < methods[j].Pos() })

	reported := make(map[token.Pos]bool)
	for _, decl := range methods {
		walkReachable(pass, idx, decl, func(chain string, n ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || reported[id.Pos()] {
				return
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return
			}
			// Error sentinels are write-once by convention.
			if types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
				return
			}
			reported[id.Pos()] = true
			sup.reportf(id.Pos(), "SessionConfined router %s references package-level variable %q (via %s): shared mutable state is off-limits inside concurrent sessions", typeName, v.Name(), chain)
		})
	}
}
