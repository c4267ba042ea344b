package analysis

// The interprocedural layer: a module-wide call graph shared by every
// analyzer that needs to see past a single function body.
//
// The old suite was purely syntactic and intraprocedural — a
// time.Now() hidden one helper deep passed the lint. The Module built
// here closes that hole: it indexes every function declaration in the
// analyzed packages, records the calls each one makes (static calls,
// function values that escape into other code, and interface calls
// resolved by class-hierarchy analysis over the module's named types),
// and exposes the graph to the analyzers through Pass.Mod. The graph is
// built once per run and cached; golden tests build one-package modules
// and the driver builds the whole-module graph.
//
// Precision notes, in the same spirit as the loader's faked stdlib:
//
//   - Function literals are attributed to the enclosing declared
//     function: a closure's body is part of its creator's behavior for
//     both taint propagation and the noalloc contract.
//   - A reference to a function that is not a call (passing it as a
//     value, assigning it to a field) is recorded as a may-call edge —
//     conservative for taint, where handing a nondeterministic helper
//     to someone else is as bad as calling it.
//   - Interface method calls fan out to every module type that
//     implements the interface (CHA). Stdlib interfaces resolve to
//     nothing because stdlib packages are faked; analyzers treat those
//     calls as unknown.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallKind classifies a call-graph edge.
type CallKind uint8

const (
	// CallStatic is a direct call to a known function or method.
	CallStatic CallKind = iota
	// CallDynamic is an interface-method call resolved by CHA: the
	// callee is one possible concrete target.
	CallDynamic
	// CallRef is a reference to a function value that is not itself a
	// call (passed, stored, returned): the function may run later.
	CallRef
)

// CallEdge is one outgoing edge of a call-graph node.
type CallEdge struct {
	// Callee is the target function's key (see funcKey).
	Callee string
	// Pos is the call or reference site.
	Pos token.Pos
	// Kind records how the edge was derived.
	Kind CallKind
}

// FuncNode is one declared function in the module.
type FuncNode struct {
	// Key identifies the function: "pkgpath.Name" or
	// "pkgpath.Recv.Name" (the methodKey format).
	Key string
	// Pkg is the package declaring the function.
	Pkg *Package
	// Decl is the declaration (nil only for synthetic nodes).
	Decl *ast.FuncDecl
	// Calls are the outgoing edges, in source order.
	Calls []CallEdge
	// Noalloc reports whether the declaration carries the
	// //tgvet:noalloc contract directive.
	Noalloc bool
}

// CallGraph is the module-wide function index.
type CallGraph struct {
	// Funcs maps function keys to nodes.
	Funcs map[string]*FuncNode
	// Impls maps an interface method key ("pkg.Iface.Method") to the
	// keys of every module method that can stand behind it.
	Impls map[string][]string
}

// Module is the unit of an interprocedural run: the set of packages the
// analyzers see, plus the caches they share. Check builds a one-package
// module on the fly; Run builds one over every package in the module
// tree so call chains cross package boundaries.
type Module struct {
	pkgs   []*Package
	graph  *CallGraph
	allows map[*Package]allowSet
	taint  *taintFacts
}

// NewModule indexes pkgs for interprocedural analysis.
func NewModule(pkgs []*Package) *Module {
	return &Module{pkgs: pkgs}
}

// allowsFor returns pkg's parsed suppression set, cached. The
// diagnostics for malformed annotations are reported by Check, not
// here; this accessor exists for analyzers that must know about
// sanctioned lines before the suppression filter runs (taint kills a
// whole chain at a sanctioned source).
func (m *Module) allowsFor(pkg *Package) allowSet {
	if m.allows == nil {
		m.allows = make(map[*Package]allowSet)
	}
	if s, ok := m.allows[pkg]; ok {
		return s
	}
	s, _ := parseAnnotations(pkg)
	m.allows[pkg] = s
	return s
}

// allowedAt reports whether file:line carries a //tgvet:allow for any
// of the named analyzers in pkg.
func (m *Module) allowedAt(pkg *Package, file string, line int, names ...string) bool {
	s := m.allowsFor(pkg)
	for _, n := range names {
		if s[file][line][n] {
			return true
		}
	}
	return false
}

// Graph builds (once) and returns the module call graph.
func (m *Module) Graph() *CallGraph {
	if m.graph != nil {
		return m.graph
	}
	g := &CallGraph{
		Funcs: make(map[string]*FuncNode),
		Impls: make(map[string][]string),
	}
	for _, pkg := range m.pkgs {
		g.indexPackage(pkg)
	}
	g.buildCHA(m.pkgs)
	m.graph = g
	return g
}

// funcKey renders a declared function's key from its type object,
// falling back to a position-qualified name when types are missing
// (lenient checking can drop objects in files poisoned by faked
// imports).
func funcKey(pkg *Package, decl *ast.FuncDecl) string {
	if obj, ok := pkg.Info.Defs[decl.Name]; ok && obj != nil {
		if k := methodKey(obj); k != "" {
			return k
		}
	}
	// Fallback: approximate the same format syntactically.
	name := decl.Name.Name
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			name = id.Name + "." + name
		}
	}
	return pkg.ImportPath + "." + name
}

// hasNoallocDirective reports whether the declaration's doc comment
// carries the //tgvet:noalloc contract marker.
func hasNoallocDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "tgvet:noalloc" {
			return true
		}
	}
	return false
}

// indexPackage adds pkg's function declarations and their edges.
func (g *CallGraph) indexPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			node := &FuncNode{
				Key:     funcKey(pkg, fd),
				Pkg:     pkg,
				Decl:    fd,
				Noalloc: hasNoallocDirective(fd),
			}
			collectEdges(pkg, fd.Body, node)
			// Two declarations can collide on the fallback key; keep the
			// first (deterministic: files and decls walk in order).
			if _, exists := g.Funcs[node.Key]; !exists {
				g.Funcs[node.Key] = node
			}
		}
	}
}

// collectEdges walks body recording static calls, CHA-resolvable
// interface calls (resolved later), and escaping function references.
func collectEdges(pkg *Package, body ast.Node, node *FuncNode) {
	info := pkg.Info
	// First pass: mark the name idents that are call operands, so the
	// reference pass below does not double-count plain calls.
	called := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			called[fun] = true
		case *ast.SelectorExpr:
			called[fun.Sel] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj := calleeOf(info, n); obj != nil {
				if key := methodKey(obj); key != "" {
					kind := CallStatic
					if isInterfaceMethod(obj) {
						kind = CallDynamic
					}
					node.Calls = append(node.Calls, CallEdge{Callee: key, Pos: n.Pos(), Kind: kind})
				}
			}
			return true
		case *ast.Ident:
			if called[n] {
				return true
			}
			if refObj, ok := info.Uses[n]; ok {
				if _, isFn := refObj.(*types.Func); isFn {
					if key := methodKey(refObj); key != "" {
						node.Calls = append(node.Calls, CallEdge{Callee: key, Pos: n.Pos(), Kind: CallRef})
					}
				}
			}
		}
		return true
	})
}

// isInterfaceMethod reports whether obj is a method declared on an
// interface type.
func isInterfaceMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// buildCHA fills Impls: for every named interface in the module, every
// module type whose method set satisfies it contributes its methods as
// possible targets of the interface's methods.
func (g *CallGraph) buildCHA(pkgs []*Package) {
	type namedIface struct {
		key   string // "pkgpath.Name"
		iface *types.Interface
	}
	var ifaces []namedIface
	var concretes []types.Type
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted: deterministic
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, namedIface{key: pkg.ImportPath + "." + name, iface: iface})
			} else {
				concretes = append(concretes, named, types.NewPointer(named))
			}
		}
	}
	for _, ni := range ifaces {
		for _, ct := range concretes {
			if !types.Implements(ct, ni.iface) {
				continue
			}
			mset := types.NewMethodSet(ct)
			for i := 0; i < ni.iface.NumMethods(); i++ {
				m := ni.iface.Method(i)
				sel := mset.Lookup(m.Pkg(), m.Name())
				if sel == nil {
					continue
				}
				implKey := methodKey(sel.Obj())
				if implKey == "" {
					continue
				}
				ifaceMethodKey := ni.key + "." + m.Name()
				g.Impls[ifaceMethodKey] = appendUnique(g.Impls[ifaceMethodKey], implKey)
			}
		}
	}
	for k := range g.Impls {
		sort.Strings(g.Impls[k])
	}
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// shortKey strips the module path prefix from a function key for
// human-readable chains ("internal/sim.Engine.At" instead of
// "telegraphos/internal/sim.Engine.At").
func shortKey(modPath, key string) string {
	if rest, ok := strings.CutPrefix(key, modPath+"/"); ok {
		return rest
	}
	if rest, ok := strings.CutPrefix(key, modPath+"."); ok {
		return rest
	}
	return key
}
