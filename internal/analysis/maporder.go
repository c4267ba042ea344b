package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// AnalyzerMapOrder proves the iteration-order contract: no map is
// ranged over where the loop body has order-sensitive effects. Go
// randomizes map iteration order per run, so a loop that schedules
// events, emits packets or trace records, accumulates floating-point
// tallies, or appends to an outer slice in map order produces a
// different simulation every execution — the classic determinism
// heisenbug. Loops that only read or update commutative state are
// fine; loops whose output is sorted before use are annotated
// //tgvet:allow maporder(reason) on the line above the `for`.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration must not drive order-sensitive effects",
	Run:  runMapOrder,
}

// maporderSimEffects are sim-package methods that feed the scheduler or
// another entity: calling one in map order perturbs the event sequence.
var maporderSimEffects = map[string]string{
	"Engine.Schedule": "schedules an event", "Engine.At": "schedules an event",
	"Engine.Spawn": "spawns a process", "Engine.SpawnDaemon": "spawns a process",
	"Chan.Send": "sends a cross-shard message",
	"Queue.Put": "enqueues work", "Queue.TryPut": "enqueues work",
	"Semaphore.Acquire": "blocks on the scheduler", "Semaphore.Release": "wakes a waiter",
	"Mutex.Lock": "blocks on the scheduler", "Mutex.Unlock": "wakes a waiter",
	"Completion.Complete": "wakes waiters", "Completion.Wait": "blocks on the scheduler",
	"Future.Resolve": "wakes waiters", "Future.Wait": "blocks on the scheduler",
	"Proc.Sleep": "yields to the scheduler", "Proc.Yield": "yields to the scheduler",
}

// maporderEffects maps fully-qualified callees outside sim to what they
// perturb.
var maporderEffects = map[string]string{
	"telegraphos/internal/hib.HIB.Post":          "emits a packet",
	"telegraphos/internal/hib.HIB.Emit":          "emits a trace event",
	"telegraphos/internal/trace.EventLog.Append": "appends a trace event",
	"telegraphos/internal/stats.Tally.Add":       "accumulates an order-sensitive tally",
	"telegraphos/internal/stats.Series.Add":      "appends a series point",
}

// maporderFmtFuncs are the fmt output functions (Sprint* are pure).
var maporderFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if effect := mapOrderEffect(pass, rng); effect != "" {
				pass.Reportf(rng.For,
					"iteration over map %s %s: map order is nondeterministic per run — iterate a sorted key slice instead, or annotate //tgvet:allow maporder(reason) if order provably cannot matter",
					exprString(rng.X), effect)
			}
			return true
		})
	}
}

// mapOrderEffect scans the loop body (including nested literals — a
// closure built in map order usually runs in map order) for the first
// order-sensitive effect and describes it.
func mapOrderEffect(pass *Pass, rng *ast.RangeStmt) string {
	info := pass.Pkg.Info
	var effect string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			effect = "sends on a channel"
			return false
		case *ast.CallExpr:
			// append to a variable declared outside the loop.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
					if base, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if obj := info.Uses[base]; obj != nil &&
							(obj.Pos() < rng.Pos() || obj.Pos() > rng.End()) {
							effect = fmt.Sprintf("appends to %q declared outside the loop", base.Name)
							return false
						}
					}
				}
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if importedPath(info, sel.X) == "fmt" && maporderFmtFuncs[sel.Sel.Name] {
					effect = "writes output via fmt." + sel.Sel.Name
					return false
				}
			}
			key := methodKey(calleeOf(info, n))
			if key == "" {
				return true
			}
			if rest, ok := cutPkg(key, "telegraphos/internal/sim"); ok {
				if what, hit := maporderSimEffects[rest]; hit {
					effect = what + " (sim." + rest + ")"
					return false
				}
			}
			if what, hit := maporderEffects[key]; hit {
				effect = what + " (" + key + ")"
				return false
			}
		}
		return true
	})
	return effect
}

// cutPkg strips a "pkgpath." prefix from a method key.
func cutPkg(key, pkg string) (string, bool) {
	if len(key) > len(pkg)+1 && key[:len(pkg)] == pkg && key[len(pkg)] == '.' {
		return key[len(pkg)+1:], true
	}
	return "", false
}

// exprString renders a short source form of e for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "expression"
	}
}
