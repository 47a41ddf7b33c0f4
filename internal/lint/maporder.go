package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rapid/internal/lint/analysis"
)

// MapOrder flags `for range` loops over maps whose bodies are
// sensitive to Go's randomized iteration order.
//
// Three body shapes are order-sensitive and flagged:
//
//  1. accumulating floats declared outside the loop (FP addition is
//     not associative, so the sum depends on visit order — the exact
//     bug class the sorted row-mirror table merge of DESIGN.md §11
//     was built to kill);
//  2. appending to a slice declared outside the loop with no
//     subsequent sort.*/slices.Sort* call on that slice later in the
//     same function (the slice escapes carrying a random order);
//  3. performing I/O (fmt/log printing, io.Writer writes), which
//     emits output in a random order;
//  4. leaving the loop early — a return, or a break that ends the map
//     range — so which entry the loop stops at, and what it leaves
//     behind, depends on the order (a break of an inner loop or switch,
//     and a return inside a function literal, do not leave it).
//
// Per-key writes (m2[k] = …, totals[k] += v where k is the range key)
// are order-independent and never flagged, and neither is integer
// counting. The canonical fix — collect keys, sort, range over the
// sorted slice — changes the range expression to a slice and clears
// the diagnostic naturally.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc: `flag map-range loops whose bodies depend on iteration order

Reports float accumulation across iterations, appends to escaping
slices that are never sorted afterwards, I/O performed inside
"for range m" bodies, and returns or breaks that leave the range
early. All four make output depend on Go's randomized map iteration
order.`,
	Run: runMapOrder,
}

func runMapOrder(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, false)
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		// Visit every function (decl or literal) so "later in the same
		// function" has a well-defined body to scan for sorts.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, sup, body)
			}
			return true
		})
	}
	return nil, nil
}

// checkMapRanges finds map-range statements directly inside fnBody
// (including nested blocks, but not nested function literals — those
// get their own visit) and applies the three order-sensitivity rules.
func checkMapRanges(pass *analysis.Pass, sup *suppressor, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != fnBody.Pos() {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, sup, fnBody, rs)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, sup *suppressor, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	keyObj := rangeVarObj(info, rs.Key)
	valObj := rangeVarObj(info, rs.Value)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, sup, fnBody, rs, stmt, keyObj, valObj)
		case *ast.CallExpr:
			checkIO(pass, sup, stmt)
		}
		return true
	})
	checkEarlyExit(pass, sup, rs)
}

// checkEarlyExit flags a return, or a break that ends the map range,
// anywhere in rs's body. Function literals are skipped (their returns
// leave only the literal), and so are nested map ranges (they get their
// own check, which reports any exit through them).
func checkEarlyExit(pass *analysis.Pass, sup *suppressor, rs *ast.RangeStmt) {
	var visit func(body ast.Node, inner bool)
	visit = func(body ast.Node, inner bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				sup.reportf(s.Pos(), "return inside a map-range body stops at whichever entry the randomized iteration order reaches first: iterate keys in sorted order")
			case *ast.BranchStmt:
				if s.Tok != token.BREAK {
					break
				}
				if (s.Label == nil && !inner) || (s.Label != nil && !labelWithin(pass.TypesInfo, s.Label, rs.Body)) {
					sup.reportf(s.Pos(), "break ends a map range at whichever entry the randomized iteration order reaches first: iterate keys in sorted order")
				}
			case *ast.RangeStmt:
				if s == body {
					return true
				}
				if t := pass.TypesInfo.TypeOf(s.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						return false
					}
				}
				visit(s, true)
				return false
			case *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if n != body {
					visit(n, true)
					return false
				}
			}
			return true
		})
	}
	visit(rs.Body, false)
}

// labelWithin reports whether a branch label names a statement inside
// body.
func labelWithin(info *types.Info, label *ast.Ident, body *ast.BlockStmt) bool {
	obj := info.Uses[label]
	return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
}

// rangeVarObj resolves the object of a range variable expression
// (key or value), handling both := definitions and plain assignment.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// declaredOutside reports whether the expression's root identifier
// resolves to a variable declared outside the range statement (so
// writes to it survive the loop).
func declaredOutside(info *types.Info, rs *ast.RangeStmt, e ast.Expr) (types.Object, bool) {
	id := rootIdent(e)
	if id == nil {
		return nil, false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil, false
	}
	if v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
		return nil, false // loop-local: resets every iteration
	}
	return v, true
}

// usesObj reports whether expression e references obj anywhere.
func usesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil || e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isFloat reports whether t's underlying basic kind carries floating
// point (floats and complex values share non-associativity).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func checkAssign(pass *analysis.Pass, sup *suppressor, fnBody *ast.BlockStmt, rs *ast.RangeStmt, as *ast.AssignStmt, keyObj, valObj types.Object) {
	info := pass.TypesInfo
	for i, lhs := range as.Lhs {
		// Per-key writes are order-independent: each map key is
		// visited exactly once, so m2[k] = v / totals[k] += v commute
		// across iterations.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if usesObj(info, ix.Index, keyObj) || usesObj(info, ix.Index, valObj) {
				continue
			}
		}

		obj, outside := declaredOutside(info, rs, lhs)
		if !outside {
			continue
		}

		// Rule 1: float accumulation (x += v, x -= v, x *= v, x /= v,
		// or x = x ⊕ …).
		if isFloat(info.TypeOf(lhs)) && isAccumulation(info, as, i, lhs) {
			sup.reportf(as.Pos(), "float accumulation into %q depends on map iteration order: iterate keys in sorted order (FP addition is not associative)", obj.Name())
			continue
		}

		// Rule 2: append to an outer slice with no later sort.
		if i < len(as.Rhs) || len(as.Rhs) == 1 {
			rhs := as.Rhs[min(i, len(as.Rhs)-1)]
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
				if !sortedAfter(info, fnBody, rs, obj) {
					sup.reportf(as.Pos(), "%q is appended to in map iteration order and never sorted afterwards: sort it (sort.*/slices.Sort*) or iterate keys in sorted order", obj.Name())
				}
			}
		}
	}
}

// isAccumulation reports whether the assignment folds the previous
// value of lhs into its new value: an op-assign, or x = x ⊕ expr.
func isAccumulation(info *types.Info, as *ast.AssignStmt, i int, lhs ast.Expr) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		obj, _ := info.Uses[rootIdentOrNil(lhs)].(*types.Var)
		if obj == nil || i >= len(as.Rhs) {
			return false
		}
		return usesObj(info, as.Rhs[i], obj)
	}
	return false
}

func rootIdentOrNil(e ast.Expr) *ast.Ident {
	if id := rootIdent(e); id != nil {
		return id
	}
	return &ast.Ident{}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether, after the range statement, the
// enclosing function sorts the data held by obj: a call to any sort.*
// function or a slices.Sort* function whose argument is obj or a
// variable derived from it. Derivation is tracked one pattern deep —
// an alias (reps := m[id]) or a range value (for _, reps := range m)
// — which covers the repository's idiomatic "collect buckets, sort
// each bucket" fix shape.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	derived := map[types.Object]bool{obj: true}
	inDerived := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		o := info.Uses[id]
		if o == nil {
			o = info.Defs[id]
		}
		return o != nil && derived[o]
	}
	mark := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if o := info.Defs[id]; o != nil {
			derived[o] = true
		} else if o := info.Uses[id]; o != nil {
			derived[o] = true
		}
	}

	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == nil || n.Pos() < rs.End() {
			return true
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i := range s.Lhs {
				if inDerived(s.Rhs[i]) {
					mark(s.Lhs[i])
				}
			}
		case *ast.RangeStmt:
			if inDerived(s.X) {
				if s.Key != nil {
					mark(s.Key)
				}
				if s.Value != nil {
					mark(s.Value)
				}
			}
		case *ast.CallExpr:
			fn := callee(info, s)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			isSort := fn.Pkg().Path() == "sort" ||
				(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
			if !isSort {
				return true
			}
			for _, arg := range s.Args {
				if inDerived(arg) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// ioFuncs lists package-level output functions whose call inside a
// map-range body emits in random order. Sprint* variants are pure and
// absent deliberately.
var ioFuncs = map[string]map[string]bool{
	"fmt": {"Print": true, "Printf": true, "Println": true,
		"Fprint": true, "Fprintf": true, "Fprintln": true},
	"log": {"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true},
	"io": {"WriteString": true, "Copy": true, "CopyN": true},
	"os": {"WriteFile": true},
}

// writerIface is io.Writer, constructed by hand so the check needs no
// import of io in the analyzed package.
var writerIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", errType)),
		false)
	fn := types.NewFunc(token.NoPos, nil, "Write", sig)
	return types.NewInterfaceType([]*types.Func{fn}, nil).Complete()
}()

func checkIO(pass *analysis.Pass, sup *suppressor, call *ast.CallExpr) {
	fn := callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() == nil {
		if ioFuncs[fn.Pkg().Path()][fn.Name()] {
			sup.reportf(call.Pos(), "%s.%s inside a map-range body emits output in random iteration order: iterate keys in sorted order", fn.Pkg().Name(), fn.Name())
		}
		return
	}
	// Write*/Print* methods on anything satisfying io.Writer
	// (*os.File, *bufio.Writer, *strings.Builder, …).
	name := fn.Name()
	if !strings.HasPrefix(name, "Write") && !strings.HasPrefix(name, "Print") {
		return
	}
	if types.Implements(sig.Recv().Type(), writerIface) ||
		types.Implements(types.NewPointer(sig.Recv().Type()), writerIface) {
		sup.reportf(call.Pos(), "%s on an io.Writer inside a map-range body emits output in random iteration order: iterate keys in sorted order", name)
	}
}
