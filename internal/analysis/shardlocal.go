package analysis

import (
	"go/ast"
)

// AnalyzerShardLocal proves the shard-locality contract statically,
// mirroring the runtime assertions in internal/sim (Engine.checkSameShard
// and the Proc hand-off discipline):
//
//  1. Blocking primitives — Queue.Get/Put, Semaphore.Acquire,
//     Mutex.Lock, Completion.Wait, Future.Wait, Proc.Sleep/Yield, and
//     the HIB's process-context operations — may only run in a
//     process's own body. An event callback (a func literal handed to
//     Engine.Schedule/Engine.At or shipped across shards with
//     Chan.Send) executes on the engine loop, where parking would
//     corrupt the hand-off and, cross-shard, wake a process on the
//     wrong shard's thread.
//  2. Raw `go` statements are forbidden in simulation code: all
//     concurrency must come from Engine.Spawn / the Group's round
//     scheduler, or determinism and the one-runner-at-a-time discipline
//     are gone. The sim core's one launch site, the Group's round
//     worker, carries a //tgvet:allow shardlocal(...) annotation naming
//     why it is the discipline rather than a violation of it. (Processes
//     are iter.Pull coroutines and need no go statement.)
var AnalyzerShardLocal = &Analyzer{
	Name: "shardlocal",
	Doc:  "blocking primitives stay in process context; goroutines stay inside the engine",
	Run:  runShardLocal,
}

// shardlocalBlocking are the methods that can park the calling process.
var shardlocalBlocking = map[string]string{
	"telegraphos/internal/sim.Queue.Put":           "Queue.Put",
	"telegraphos/internal/sim.Queue.Get":           "Queue.Get",
	"telegraphos/internal/sim.Semaphore.Acquire":   "Semaphore.Acquire",
	"telegraphos/internal/sim.Mutex.Lock":          "Mutex.Lock",
	"telegraphos/internal/sim.Completion.Wait":     "Completion.Wait",
	"telegraphos/internal/sim.Future.Wait":         "Future.Wait",
	"telegraphos/internal/sim.Proc.Sleep":          "Proc.Sleep",
	"telegraphos/internal/sim.Proc.Yield":          "Proc.Yield",
	"telegraphos/internal/hib.HIB.Fence":           "HIB.Fence",
	"telegraphos/internal/hib.HIB.WaitOutstanding": "HIB.WaitOutstanding",
}

// shardlocalCallbacks maps scheduling entry points to the index of
// their callback argument.
var shardlocalCallbacks = map[string]int{
	"telegraphos/internal/sim.Engine.Schedule": 1,
	"telegraphos/internal/sim.Engine.At":       1,
	"telegraphos/internal/sim.Chan.Send":       1,
}

func runShardLocal(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw go statement in simulation code: concurrency must flow through Engine.Spawn or the Group round scheduler so the hand-off discipline (one runner at a time, deterministic order) holds")
			case *ast.CallExpr:
				argIdx, ok := shardlocalCallbacks[methodKey(calleeOf(info, n))]
				if !ok || argIdx >= len(n.Args) {
					return true
				}
				lit, ok := ast.Unparen(n.Args[argIdx]).(*ast.FuncLit)
				if !ok {
					return true
				}
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name, hit := shardlocalBlocking[methodKey(calleeOf(info, call))]; hit {
						pass.Reportf(call.Pos(),
							"blocking %s inside an event callback: events run on the engine loop, not in process context — blocking primitives are shard-local and may only be called from the owning process body (route cross-shard work through a sim.Chan that wakes a local process)",
							name)
					}
					return true
				})
			}
			return true
		})
	}
}
