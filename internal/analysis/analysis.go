// Package analysis is tgvet: a zero-dependency static-analysis suite
// that proves the simulator's determinism and shard-safety contracts at
// compile time instead of hoping a chaos seed trips over a violation at
// run time.
//
// The whole reproduction rests on the PDES engine's determinism
// contract — bit-identical traces across shard counts and GOMAXPROCS —
// and on shard-locality rules that the sim core can only enforce with
// runtime panics. Each analyzer here turns one of those obligations
// into a static check over the module's source:
//
//   - taint: no wall-clock time (sim.Time only), global math/rand
//     (per-shard sim.RNG streams only), environment or host-identity
//     reads in simulation code, directly or through any call chain;
//     direct uses are reported under the rule tags walltime, globalrand
//     and taint;
//   - maporder: no order-sensitive effects inside map iteration;
//   - shardlocal: no blocking primitives in event callbacks and no raw
//     goroutines outside the engine's hand-off discipline;
//   - eventdrop: no discarded *sim.Event timer handles;
//   - tracesink: HIB recorders built from trace recorders only, and no
//     host filesystem access in the trace pipeline outside the spill
//     writer;
//   - noalloc: //tgvet:noalloc functions proven allocation-free,
//     transitively;
//   - handle: pooled *sim.Event handles used within their lifetime.
//
// Legitimate exceptions are declared in the source with an escape
// hatch:
//
//	//tgvet:allow <analyzer>(<reason>)
//
// either at the end of the offending line or on a comment line of its
// own immediately above it. The reason is mandatory: a suppression
// without an argument is itself a diagnostic. Stacked standalone
// annotations (one per line) all apply to the first code line below
// them.
//
// The suite is built only on the standard library (go/parser, go/types
// and a small multi-package source loader in load.go), so it runs
// offline with no module downloads — the same constraint the rest of
// the repo builds under.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named static check over a loaded package.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //tgvet:allow annotations.
	Name string
	// Doc states the invariant the analyzer proves.
	Doc string
	// Run inspects the package and reports diagnostics through pass.
	Run func(pass *Pass)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerMapOrder,
		AnalyzerShardLocal,
		AnalyzerEventDrop,
		AnalyzerTraceSink,
		AnalyzerTaint,
		AnalyzerNoalloc,
		AnalyzerHandle,
	}
}

// analyzerNames are the names a //tgvet:allow annotation may carry:
// every analyzer's, plus the rule tags taint reports its direct
// wall-clock and math/rand findings under. The analyzers are added by
// init rather than referencing Analyzers() directly from
// parseAnnotations: the interprocedural analyzers consult annotations
// from their Run functions, and a static reference from annotation
// parsing back to the registry would close an initialization cycle.
var analyzerNames = map[string]bool{ruleWalltime: true, ruleGlobalRand: true}

func init() {
	for _, a := range Analyzers() {
		analyzerNames[a.Name] = true
	}
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name, the rule tag of a
	// taint direct finding (walltime, globalrand), or "tgvet" for
	// problems with the annotations themselves.
	Analyzer string `json:"analyzer"`
	// File is the path of the offending file (as loaded).
	File string `json:"file"`
	// Line and Col are 1-based source coordinates.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the violation.
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Mod is the interprocedural context: the call graph and annotation
	// caches shared across the run's packages (see callgraph.go).
	Mod *Module

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(p.Analyzer.Name, pos, fmt.Sprintf(format, args...))
}

// report records a diagnostic at pos under the given rule tag, which
// an analyzer may use instead of its own name (taint's direct findings).
func (p *Pass) report(rule string, pos token.Pos, msg string) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: rule,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  msg,
	})
}

// TypeOf returns the type of e, or nil when type-checking could not
// resolve it (e.g. an expression poisoned by a faked stdlib import).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.Pkg.Info.TypeOf(e); t != nil && t != types.Typ[types.Invalid] {
		return t
	}
	return nil
}

// Check runs every analyzer in the suite over pkg, filters the findings
// through the package's //tgvet:allow annotations, and returns the
// surviving diagnostics (including any malformed annotations) sorted by
// position. Analyzer names restrict the run when non-empty. The
// interprocedural analyzers see only pkg itself; use Module.Check when
// call chains must cross package boundaries.
func Check(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	return NewModule([]*Package{pkg}).Check(pkg, analyzers...)
}

// Check runs the analyzers over pkg with the module's shared
// interprocedural context (call graph, taint facts, noalloc index).
func (m *Module) Check(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	allows, diags := parseAnnotations(pkg)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Mod: m}
		a.Run(pass)
		for _, d := range pass.diags {
			if !allows.suppresses(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// allowSet indexes the package's suppression annotations: for each file,
// the set of (analyzer, target line) pairs an annotation covers.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) add(file string, line int, name string) {
	if s[file] == nil {
		s[file] = make(map[int]map[string]bool)
	}
	if s[file][line] == nil {
		s[file][line] = make(map[string]bool)
	}
	s[file][line][name] = true
}

func (s allowSet) suppresses(d Diagnostic) bool {
	return s[d.File][d.Line][d.Analyzer]
}

// allowRe matches the body of a well-formed annotation after the
// "tgvet:allow" marker: an analyzer name and a non-empty reason. The
// reason match is greedy so it may itself contain parentheses.
var allowRe = regexp.MustCompile(`^tgvet:allow\s+([a-z]+)\((.+)\)\s*$`)

// noallocDirective is the function-contract marker consumed by the
// noalloc analyzer (callgraph.go parses it off FuncDecl doc comments);
// the annotation parser must recognize it as well-formed.
const noallocDirective = "tgvet:noalloc"

// parseAnnotations scans every comment in the package for
// //tgvet:allow directives. It returns the suppression set and a
// diagnostic for each malformed directive (missing reason, unknown
// analyzer, unparseable syntax, or a standalone annotation with no code
// line to attach to) — annotations are part of the contract, so a
// broken one must fail the build rather than silently suppress nothing.
func parseAnnotations(pkg *Package) (allowSet, []Diagnostic) {
	allows := make(allowSet)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		// First pass: find the standalone annotation lines, so stacked
		// annotations can skip over each other to the code below.
		standalone := make(map[int]bool)
		type pending struct {
			line       int
			col        int
			name       string
			standalone bool
		}
		var entries []pending
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "tgvet:") {
					continue
				}
				if text == noallocDirective {
					continue // function contract, not a suppression
				}
				pos := pkg.Fset.Position(c.Slash)
				m := allowRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					diags = append(diags, Diagnostic{
						Analyzer: "tgvet", File: filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("malformed annotation %q: want //tgvet:allow analyzer(reason)", text),
					})
					continue
				}
				if !analyzerNames[m[1]] {
					diags = append(diags, Diagnostic{
						Analyzer: "tgvet", File: filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("annotation names unknown analyzer %q", m[1]),
					})
					continue
				}
				alone := isStandaloneComment(pkg, filename, pos)
				if alone {
					standalone[pos.Line] = true
				}
				entries = append(entries, pending{line: pos.Line, col: pos.Column, name: m[1], standalone: alone})
			}
		}
		for _, e := range entries {
			target := e.line
			if e.standalone {
				// A standalone annotation covers the next line that is
				// not itself a standalone annotation.
				target = e.line + 1
				for standalone[target] {
					target++
				}
				if !lineHasCode(pkg, filename, target) {
					// An annotation that attaches to a blank line, a
					// comment, or the end of the file suppresses nothing;
					// silently accepting it would leave a dead suppression
					// that springs back to life when code moves under it.
					diags = append(diags, Diagnostic{
						Analyzer: "tgvet", File: filename, Line: e.line, Col: e.col,
						Message: fmt.Sprintf("orphaned //tgvet:allow %s annotation: the line below it has no code to attach to (move it directly above the statement it suppresses, or delete it)", e.name),
					})
					continue
				}
			}
			allows.add(filename, target, e.name)
		}
	}
	return allows, diags
}

// lineHasCode reports whether the 1-based line of file contains any
// code (not blank, not a pure comment line, not past end of file).
func lineHasCode(pkg *Package, filename string, line int) bool {
	src, ok := pkg.Sources[filename]
	if !ok {
		return true // no source text: assume the best, never invent orphans
	}
	lines := strings.Split(string(src), "\n")
	if line < 1 || line > len(lines) {
		return false
	}
	text := strings.TrimSpace(lines[line-1])
	return text != "" && !strings.HasPrefix(text, "//")
}

// isStandaloneComment reports whether the comment starting at pos has
// nothing but whitespace before it on its line.
func isStandaloneComment(pkg *Package, filename string, pos token.Position) bool {
	src, ok := pkg.Sources[filename]
	if !ok {
		return false
	}
	// Offset of the line start: walk back from the comment's offset.
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// --- shared type-query helpers used by the analyzers ---

// importedPath resolves x to the import path of the package it names,
// or "" when x is not a package qualifier. Works against faked stdlib
// packages too: the checker records the PkgName use even when the
// member lookup later fails.
func importedPath(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// calleeOf returns the function or method object a call invokes, or nil
// when it cannot be resolved (builtins, faked packages, indirect calls).
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// methodKey renders obj as "pkgpath.Recv.Name" for a method, or
// "pkgpath.Name" for a package-level function; "" otherwise.
func methodKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// exprText renders a simple expression for diagnostics (identifiers,
// selector chains, indexes); it is not a full printer.
func exprText(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[" + exprText(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.CallExpr:
		return exprText(e.Fun) + "(…)"
	case *ast.BasicLit:
		return e.Value
	}
	return "…"
}

// isConstZero reports whether e type-checked to the integer constant 0.
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.ExactString() == "0"
}
