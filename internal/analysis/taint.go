package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// AnalyzerTaint proves the determinism contract: simulation code never
// reads a nondeterminism source — the host wall clock, global
// math/rand, the environment, or goroutine/host identity — directly or
// through any chain of calls. All time inside the model flows from
// sim.Time and all randomness from per-shard sim.RNG streams, which is
// what makes a run a pure function of its seed.
//
// Every file is scanned whole against one table of sources, and each
// direct use is reported under its source's rule tag: walltime,
// globalrand, or taint for environment and host-identity reads. A use
// inside a declared function's body also taints the function, and every
// call site that transitively reaches it is reported under taint with
// the full chain down to the source.
//
// Sanctioning is at the source, not the symptom: a //tgvet:allow naming
// the source's rule declares the use genuine (host-side benchmarking,
// CI calibration), and an allow naming that rule or taint on the source
// line kills the entire chain above it. An //tgvet:allow taint(reason)
// on a call site stops propagation through that edge alone.
var AnalyzerTaint = &Analyzer{
	Name: ruleTaint,
	Doc:  "simulation code may not reach wall-clock, global rand, env, or host-identity sources, directly or through any call chain",
	Run:  runTaint,
}

// The rule tags direct findings are reported (and sanctioned) under;
// the first two are also accepted as //tgvet:allow names.
const (
	ruleWalltime   = "walltime"
	ruleGlobalRand = "globalrand"
	ruleTaint      = "taint"
)

// walltimeFuncs are the package time functions that read or act on the
// host's wall clock. Pure conversions and types (time.Duration,
// time.Millisecond) are not flagged: they carry no hidden clock.
var walltimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// envFuncs are the host environment and identity reads.
var envFuncs = map[string]map[string]bool{
	"os":      {"Getenv": true, "LookupEnv": true, "Environ": true, "Hostname": true, "Getpid": true, "Getppid": true},
	"runtime": {"NumGoroutine": true, "NumCPU": true, "GOMAXPROCS": true},
}

func isMathRand(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// rngExemptFile in rngExemptPkg is the one file allowed to touch
// math/rand: the home of the simulator's own RNG, which documents the
// splitmix64 stream the rest of the simulator forks from.
const (
	rngExemptFile = "rng.go"
	rngExemptPkg  = "telegraphos/internal/sim"
)

// classifySource reports whether member name of the package at path is
// a nondeterminism source: its rule tag ("" when it is none), its
// witness-chain label, and the message of its direct finding.
func classifySource(path, name string) (rule, desc, msg string) {
	switch {
	case path == "time" && walltimeFuncs[name]:
		desc = "time." + name
		return ruleWalltime, desc, fmt.Sprintf("wall-clock %s in simulation code: simulated time must come from sim.Time (Engine.Now/Proc.Now); for genuine host-side measurement annotate //tgvet:allow walltime(reason)", desc)
	case isMathRand(path):
		return ruleGlobalRand, fmt.Sprintf("math/rand (rand.%s)", name),
			fmt.Sprintf("global math/rand use (rand.%s): randomness must flow through per-shard sim.RNG streams (sim.NewRNG / RNG.Fork) so runs stay a pure function of their seed", name)
	case envFuncs[path][name]:
		desc = path + "." + name
		return ruleTaint, desc, fmt.Sprintf("nondeterministic source %s in simulation code: a run must be a pure function of its seed and config, and host environment/identity reads break bit-identical traces across shard counts — plumb the value through params, or annotate //tgvet:allow taint(reason)", desc)
	}
	return "", "", ""
}

// classifyImport reports an import that binds no qualifier to a source
// package, whose uses would escape the selector scan: a blank or dot
// import of math/rand, or a dot import of time, os or runtime (the
// loader fakes the standard library, so an unqualified Now() cannot be
// resolved — the import itself is the finding).
func classifyImport(imp *ast.ImportSpec) (rule, msg string) {
	path, err := strconv.Unquote(imp.Path.Value)
	if err != nil || imp.Name == nil {
		return "", ""
	}
	name := imp.Name.Name
	switch {
	case isMathRand(path) && (name == "_" || name == "."):
		return ruleGlobalRand, fmt.Sprintf("%s import of %s: randomness must flow through per-shard sim.RNG streams (sim.NewRNG / RNG.Fork)", name, path)
	case name != ".":
		return "", ""
	case path == "time":
		return ruleWalltime, ". import of time: unqualified wall-clock reads (Now, Since, Sleep, …) hide from tgvet; import time by name — simulated time must come from sim.Time (Engine.Now/Proc.Now)"
	case envFuncs[path] != nil:
		return ruleTaint, fmt.Sprintf(". import of %s: unqualified host environment/identity reads hide from tgvet; import %s by name and keep such reads out of simulation code", path, path)
	}
	return "", ""
}

// directSource is one use of a nondeterminism source.
type directSource struct {
	rule string // tag of the direct finding: walltime, globalrand or taint
	desc string // chain label, e.g. "time.Now", "math/rand (rand.Intn)"
	msg  string // message of the direct finding
	pos  token.Pos
}

// taintStep is one hop of a function's witness chain toward a source.
type taintStep struct {
	callee string    // next function key on the chain
	pos    token.Pos // call site inside the tainted function
}

// taintFacts is the module-wide fixed point: every direct source use,
// which functions reach a source, and a shortest witness hop for each.
type taintFacts struct {
	uses   map[*Package][]directSource // every direct use, by package
	direct map[string][]directSource   // propagation seeds, by function key
	steps  map[string]taintStep
}

// taintFacts computes (once) the module's taint closure.
func (m *Module) taintFacts() *taintFacts {
	if m.taint != nil {
		return m.taint
	}
	g := m.Graph()
	facts := &taintFacts{
		uses:   make(map[*Package][]directSource),
		direct: make(map[string][]directSource),
		steps:  make(map[string]taintStep),
	}
	for _, pkg := range m.pkgs {
		facts.scan(m, g, pkg)
	}

	keys := make([]string, 0, len(g.Funcs))
	//tgvet:allow maporder(keys are sorted immediately below; all traversal is over the sorted slice)
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Seed: functions whose own bodies contain an unsanctioned source.
	var queue []string
	for _, k := range keys {
		if len(facts.direct[k]) > 0 {
			queue = append(queue, k)
		}
	}

	// Reverse edges, with sanctioned call sites removed: an
	// //tgvet:allow taint on the call line stops propagation there.
	reverse := make(map[string][]struct {
		caller string
		pos    token.Pos
	})
	for _, k := range keys {
		node := g.Funcs[k]
		for _, e := range node.Calls {
			if _, inModule := g.Funcs[e.Callee]; !inModule {
				continue
			}
			pos := node.Pkg.Fset.Position(e.Pos)
			if m.allowedAt(node.Pkg, pos.Filename, pos.Line, ruleTaint) {
				continue
			}
			reverse[e.Callee] = append(reverse[e.Callee], struct {
				caller string
				pos    token.Pos
			}{k, e.Pos})
		}
	}

	// BFS from the seeds: shortest witness chains, deterministic order.
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, r := range reverse[k] {
			if _, seeded := facts.direct[r.caller]; seeded {
				continue // already a source itself
			}
			if _, seen := facts.steps[r.caller]; seen {
				continue
			}
			facts.steps[r.caller] = taintStep{callee: k, pos: r.pos}
			queue = append(queue, r.caller)
		}
	}
	m.taint = facts
	return facts
}

// scan walks every file of pkg whole and records each source use. A use
// inside a declared function's body also seeds that function, unless an
// allow naming the source's rule or taint sanctions its line.
func (facts *taintFacts) scan(m *Module, g *CallGraph, pkg *Package) {
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Pos()).Filename
		rngHome := filepath.Base(filename) == rngExemptFile && pkg.ImportPath == rngExemptPkg
		for _, imp := range f.Imports {
			if rule, msg := classifyImport(imp); rule != "" && !(rngHome && rule == ruleGlobalRand) {
				facts.uses[pkg] = append(facts.uses[pkg], directSource{rule: rule, msg: msg, pos: imp.Pos()})
			}
		}
		for _, decl := range f.Decls {
			var seed string // function key the body's sources taint
			var body ast.Node
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if node := g.Funcs[funcKey(pkg, fd)]; node != nil && node.Decl == fd {
					seed, body = node.Key, fd.Body
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				rule, desc, msg := classifySource(importedPath(pkg.Info, sel.X), sel.Sel.Name)
				if rule == "" || rngHome && rule == ruleGlobalRand {
					return true
				}
				s := directSource{rule: rule, desc: desc, msg: msg, pos: sel.Pos()}
				facts.uses[pkg] = append(facts.uses[pkg], s)
				pos := pkg.Fset.Position(s.pos)
				if seed != "" && body.Pos() <= s.pos && s.pos < body.End() &&
					!m.allowedAt(pkg, pos.Filename, pos.Line, rule, ruleTaint) {
					facts.direct[seed] = append(facts.direct[seed], s)
				}
				return true
			})
		}
	}
}

// chainTo renders the witness chain from key down to its source, e.g.
// "stepClock → hostStamp → time.Now at clock.go:12".
func (facts *taintFacts) chainTo(g *CallGraph, key string) string {
	modPath := ""
	if node := g.Funcs[key]; node != nil {
		modPath = modulePathOf(node.Pkg)
	}
	var parts []string
	for hop := 0; hop < 64; hop++ { // bound: chains are acyclic by construction, belt and braces
		parts = append(parts, shortKey(modPath, key))
		if srcs := facts.direct[key]; len(srcs) > 0 {
			node := g.Funcs[key]
			pos := node.Pkg.Fset.Position(srcs[0].pos)
			parts = append(parts, fmt.Sprintf("%s at %s:%d", srcs[0].desc, filepath.Base(pos.Filename), pos.Line))
			break
		}
		step, ok := facts.steps[key]
		if !ok {
			break
		}
		key = step.callee
	}
	return strings.Join(parts, " → ")
}

// modulePathOf recovers the module path prefix from a package's import
// path and directory-relative layout; for key shortening only.
func modulePathOf(pkg *Package) string {
	// ImportPath is "<module>/<rel>" or "<module>"; we cannot recover
	// the split without the loader, but the common case — all analyzed
	// code under one module — only needs a shared prefix heuristic:
	// trim up to the first path element.
	if i := strings.Index(pkg.ImportPath, "/"); i > 0 {
		return pkg.ImportPath[:i]
	}
	return pkg.ImportPath
}

func runTaint(pass *Pass) {
	facts := pass.Mod.taintFacts()
	g := pass.Mod.Graph()

	// Direct uses go out under their source's rule tag, so the allows
	// naming that rule suppress them.
	for _, s := range facts.uses[pass.Pkg] {
		pass.report(s.rule, s.pos, s.msg)
	}

	keys := make([]string, 0, len(g.Funcs))
	//tgvet:allow maporder(keys are sorted immediately below before any report is emitted)
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		node := g.Funcs[k]
		if node.Pkg != pass.Pkg {
			continue
		}
		if step, tainted := facts.steps[k]; tainted {
			modPath := modulePathOf(node.Pkg)
			pass.Reportf(step.pos,
				"call to %s transitively reaches nondeterministic source (%s): the determinism contract is transitive, and the walltime/globalrand analyzers cannot see through wrappers — fix or sanction the source line itself (its //tgvet:allow kills this whole chain), or annotate this call //tgvet:allow taint(reason)",
				shortKey(modPath, step.callee), facts.chainTo(g, k))
		}
	}
}
