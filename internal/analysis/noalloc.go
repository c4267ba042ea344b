package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerNoalloc turns the hot path's zero-allocation guarantee from a
// runtime gate into a static contract. A function annotated
//
//	//tgvet:noalloc
//
// in its doc comment promises to allocate nothing in steady state; the
// analyzer flags every construct inside it that can reach the
// allocator:
//
//   - make / new and slice, map, or address-taken composite literals;
//   - append (growth) and map-index assignment (bucket growth);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface boxing at call arguments, conversions, and returns
//     (constants are exempt: they box from static data);
//   - function literals and bound method values (closure allocation);
//   - go and defer statements;
//   - calls to functions not themselves marked //tgvet:noalloc —
//     including interface-method calls unless every module
//     implementation is marked, and calls that leave the module,
//     except into the standard library packages of noallocStdlib.
//
// The contract composes through the call graph, so a proof over
// Schedule → pool.get → heap push covers paths no benchmark drives.
// Deliberate amortized allocations (pool chunk growth, ring doubling)
// are declared where they happen with //tgvet:allow noalloc(reason),
// which keeps every exception reviewable (`make lint-fix-audit`).
var AnalyzerNoalloc = &Analyzer{
	Name: "noalloc",
	Doc:  "//tgvet:noalloc functions must be provably allocation-free, transitively",
	Run:  runNoalloc,
}

// noallocSafeBuiltins are builtins that never allocate.
var noallocSafeBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"min": true, "max": true, "real": true, "imag": true, "complex": true,
	"panic": true, "recover": true, "print": true, "println": true,
}

// noallocStdlib lists the standard library packages none of whose
// functions allocate. The loader fakes the standard library as empty
// packages, so their calls resolve to nothing the call graph could
// prove; a call into one of these packages passes on this list alone.
var noallocStdlib = map[string]bool{
	"math/bits": true,
}

func runNoalloc(pass *Pass) {
	g := pass.Mod.Graph()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoallocDirective(fd) {
				continue
			}
			checkNoallocFunc(pass, g, fd)
		}
	}
}

// checkNoallocFunc walks one annotated function body.
func checkNoallocFunc(pass *Pass, g *CallGraph, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	// Mark call-operand selectors/idents so method references in call
	// position are not misread as bound method values.
	called := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			called[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	var resultTypes []types.Type
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			t := pass.TypeOf(field.Type)
			n := len(field.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				resultTypes = append(resultTypes, t)
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in //tgvet:noalloc function: closures allocate (captured variables escape); hoist to a prebound method or field")
			return false // the literal's body belongs to the closure, already flagged
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in //tgvet:noalloc function: spawning allocates (and breaks the hand-off discipline)")
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in //tgvet:noalloc function: deferred calls may allocate their frame; restructure with explicit calls")
		case *ast.CallExpr:
			checkNoallocCall(pass, g, n)
		case *ast.CompositeLit:
			switch pass.TypeOf(n).(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in //tgvet:noalloc function allocates its backing array")
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in //tgvet:noalloc function allocates")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					pass.Reportf(n.Pos(), "address-taken composite literal in //tgvet:noalloc function escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "string concatenation in //tgvet:noalloc function allocates the result")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(pass.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "string concatenation in //tgvet:noalloc function allocates the result")
			}
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if _, isMap := typeUnder(pass.TypeOf(idx.X)).(*types.Map); isMap {
						pass.Reportf(lhs.Pos(), "map assignment in //tgvet:noalloc function: inserting may grow the bucket array")
					}
				}
			}
		case *ast.SelectorExpr:
			if called[n] {
				return true
			}
			// x.M used as a value (not called, not a method expression
			// T.M): a bound method value captures x in a closure.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				pass.Reportf(n.Pos(), "bound method value %s.%s in //tgvet:noalloc function allocates a closure over its receiver", exprText(n.X), n.Sel.Name)
			}
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if i >= len(resultTypes) {
					break
				}
				if boxes(pass, resultTypes[i], res) {
					pass.Reportf(res.Pos(), "return boxes a concrete value into interface result in //tgvet:noalloc function")
				}
			}
		}
		return true
	})
}

// checkNoallocCall classifies one call inside a noalloc function.
func checkNoallocCall(pass *Pass, g *CallGraph, call *ast.CallExpr) {
	info := pass.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make in //tgvet:noalloc function allocates")
			case "new":
				pass.Reportf(call.Pos(), "new in //tgvet:noalloc function allocates")
			case "append":
				pass.Reportf(call.Pos(), "append in //tgvet:noalloc function may grow the backing array; if growth is amortized by design, annotate //tgvet:allow noalloc(reason)")
			default:
				if !noallocSafeBuiltins[b.Name()] {
					pass.Reportf(call.Pos(), "builtin %s in //tgvet:noalloc function may allocate", b.Name())
				}
			}
			checkBoxingArgs(pass, call)
			return
		}
	}

	// Type conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			argT := pass.TypeOf(call.Args[0])
			switch {
			case isStringType(target) && isByteOrRuneSlice(argT):
				pass.Reportf(call.Pos(), "[]byte/[]rune-to-string conversion in //tgvet:noalloc function copies and allocates")
			case isByteOrRuneSlice(target) && isStringType(argT):
				pass.Reportf(call.Pos(), "string-to-slice conversion in //tgvet:noalloc function copies and allocates")
			case boxes(pass, target, call.Args[0]):
				pass.Reportf(call.Pos(), "conversion to interface in //tgvet:noalloc function boxes its operand")
			}
		}
		return
	}

	checkBoxingArgs(pass, call)

	pkgPath, name := qualifiedCallee(info, fun)
	if noallocStdlib[pkgPath] {
		return
	}

	obj := calleeOf(info, call)
	fn, isFunc := obj.(*types.Func)
	if !isFunc && pkgPath != "" {
		// A faked standard library package declares nothing.
		pass.Reportf(call.Pos(), "call to %s.%s in //tgvet:noalloc function leaves the analyzed module; cannot prove alloc-free", pkgPath, name)
		return
	}
	if !isFunc {
		pass.Reportf(call.Pos(), "dynamic call through a function value in //tgvet:noalloc function: the callee cannot be proven alloc-free; if the target is itself //tgvet:noalloc, annotate //tgvet:allow noalloc(reason)")
		return
	}
	key := methodKey(fn)
	if key == "" {
		pass.Reportf(call.Pos(), "unresolvable call in //tgvet:noalloc function: the callee cannot be proven alloc-free")
		return
	}
	if isInterfaceMethod(fn) {
		impls := g.Impls[key]
		if len(impls) == 0 {
			pass.Reportf(call.Pos(), "interface call %s in //tgvet:noalloc function has no analyzable implementations; cannot prove alloc-free", key)
			return
		}
		for _, impl := range impls {
			node := g.Funcs[impl]
			if node == nil || !node.Noalloc {
				pass.Reportf(call.Pos(), "interface call %s in //tgvet:noalloc function: implementation %s is not marked //tgvet:noalloc", key, impl)
				return
			}
		}
		return
	}
	node := g.Funcs[key]
	if node == nil {
		pass.Reportf(call.Pos(), "call to %s in //tgvet:noalloc function leaves the analyzed module; cannot prove alloc-free", key)
		return
	}
	if !node.Noalloc {
		pass.Reportf(call.Pos(), "call to %s in //tgvet:noalloc function: the callee is not marked //tgvet:noalloc (the contract is transitive)", key)
	}
}

// qualifiedCallee splits a qualified callee pkg.F into pkg's import
// path and F; it returns "" for any other callee.
func qualifiedCallee(info *types.Info, fun ast.Expr) (pkgPath, name string) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if pkg, ok := info.Uses[id].(*types.PkgName); ok {
		return pkg.Imported().Path(), sel.Sel.Name
	}
	return "", ""
}

// checkBoxingArgs flags concrete values boxed into interface
// parameters (constants box from static data and are exempt).
func checkBoxingArgs(pass *Pass, call *ast.CallExpr) {
	sig, ok := typeUnder(pass.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
			if call.Ellipsis.IsValid() {
				pt = last // s... passes the slice through, no boxing
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(pass, pt, arg) {
			pass.Reportf(arg.Pos(), "argument boxes a concrete value into an interface parameter in //tgvet:noalloc function")
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.(*types.Slice); ok {
			if types.IsInterface(sl.Elem()) || !allConstArgs(pass, call.Args[params.Len()-1:]) {
				pass.Reportf(call.Pos(), "variadic call in //tgvet:noalloc function allocates its argument slice")
			}
		}
	}
}

func allConstArgs(pass *Pass, args []ast.Expr) bool {
	for _, a := range args {
		tv, ok := pass.Pkg.Info.Types[a]
		if !ok || tv.Value == nil {
			return false
		}
	}
	return true
}

// boxes reports whether assigning expr to a value of type target boxes
// a concrete value into an interface at run time.
func boxes(pass *Pass, target types.Type, expr ast.Expr) bool {
	if target == nil || !types.IsInterface(typeUnder(target)) {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil || tv.Type == types.Typ[types.Invalid] {
		return false
	}
	if tv.Value != nil {
		return false // constants box from read-only static data
	}
	if tv.IsNil() {
		return false
	}
	return !types.IsInterface(typeUnder(tv.Type))
}

func isStringType(t types.Type) bool {
	b, ok := typeUnder(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := typeUnder(t).(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// typeUnder unwraps to the underlying type, tolerating nil.
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
