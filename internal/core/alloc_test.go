package core

import (
	"fmt"
	"runtime"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
)

// steadyLoad is a cluster whose programs loop forever, counting the
// operations they complete.
type steadyLoad struct {
	name string
	cfg  func(nodes int) params.Config
	// prog returns node i's program over one shared word per home.
	prog func(words []addrspace.VAddr, i int, ops *int64) func(*cpu.Ctx)
}

var steadyLoads = []steadyLoad{
	{
		// torus-rpc's shape: blocking remote loads and fetch&incs to
		// every other home in turn, over a 4x4 torus with 10 ns links.
		name: "torus2d rpc",
		cfg: func(nodes int) params.Config {
			cfg := params.Default(nodes)
			cfg.Topology = "torus2d"
			return cfg
		},
		prog: func(words []addrspace.VAddr, i int, ops *int64) func(*cpu.Ctx) {
			n := len(words)
			return func(ctx *cpu.Ctx) {
				for k := 0; ; k++ {
					home := words[(i+1+k%(n-1))%n]
					if k%3 == 2 {
						ctx.FetchAndInc(home)
					} else {
						ctx.Load(home + 8)
					}
					*ops++
				}
			}
		},
	},
	{
		// campus-write's shape: posted remote stores to a partner on a
		// chain of 4-port switches, fenced every 16 stores.
		name: "chain stores",
		cfg: func(nodes int) params.Config {
			cfg := params.Default(nodes)
			cfg.Topology = "chain"
			cfg.ChainPerSwitch = 4
			return cfg
		},
		prog: func(words []addrspace.VAddr, i int, ops *int64) func(*cpu.Ctx) {
			target := words[(i+3)%len(words)]
			return func(ctx *cpu.Ctx) {
				for k := uint64(1); ; k++ {
					ctx.Store(target, k)
					*ops++
					if k%16 == 0 {
						ctx.Fence()
						*ops++
					}
				}
			}
		},
	},
}

// startSteady builds sl's 16-node cluster at the given shard count and
// spawns its programs; done reports the operations they have completed.
func startSteady(sl steadyLoad, shards int) (c *Cluster, done func() int64) {
	const nodes = 16
	cfg := sl.cfg(nodes)
	cfg.Sizing.MemBytes = 1 << 20
	cfg.Shards = shards
	c = New(cfg)
	words := make([]addrspace.VAddr, nodes)
	for h := range words {
		words[h] = c.AllocShared(addrspace.NodeID(h), 16)
	}
	ops := make([]int64, nodes)
	for i := range ops {
		c.Spawn(i, fmt.Sprintf("steady%d", i), sl.prog(words, i, &ops[i]))
	}
	return c, func() (n int64) {
		for _, o := range ops {
			n += o
		}
		return n
	}
}

// TestSteadyStateAllocs pins the whole machine's steady state at zero
// allocations per operation, at one shard and at two: once its pools,
// free lists, queues and waiter arrays have warmed, a further window of
// simulated time allocates nothing — no packet, future, completion,
// closure, link crossing, TLB entry or waiter slot.
func TestSteadyStateAllocs(t *testing.T) {
	for _, sl := range steadyLoads {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%d shards", sl.name, shards), func(t *testing.T) {
				c, done := startSteady(sl, shards)
				// Warm up until every queue has met its high-water mark
				// (after 2 ms the chain's still grew a few times).
				if err := c.RunUntil(10 * sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				// Count allocations exactly, on one OS thread as
				// testing.AllocsPerRun does; it would round a few per
				// window down to 0.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				opsBefore := done()
				runtime.ReadMemStats(&before)
				if err := c.RunUntil(c.Group.Now() + 2*sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				measured := done() - opsBefore
				if measured < 1000 {
					t.Fatalf("only %d ops in the measured window", measured)
				}
				if n := after.Mallocs - before.Mallocs; n != 0 {
					t.Errorf("%d allocations over %d ops (%.4f per op), want 0", n, measured, float64(n)/float64(measured))
				}
			})
		}
	}
}

// workBudgets caps the engine work items (events and messages executed,
// sim.Group.Executed) per operation of each steady load in a window
// after warm-up, at one shard and at two: the measured count plus about
// 2 %. Counts are exact and host-independent, so they catch a change
// that adds queue items per operation, which wall time on a shared host
// cannot resolve. They differ by shard count: a link whose two ends
// share an engine returns a credit without a queue item while no sender
// waits, and a link between two shards sends every credit. Ratchet a
// budget down when a change removes items.
var workBudgets = map[string][2]float64{
	// 23.56 and 24.63 measured; 31.83 at both when every credit was a
	// message, 38.11 when every wire clear was an event too.
	"torus2d rpc": {24.0, 25.1},
	// 15.57 and 15.99 measured; 20.49 at both when every credit was a
	// message, 22.08 when every wire clear was an event too.
	"chain stores": {15.9, 16.3},
}

// TestWorkBudgets pins the work items per operation of the steady
// loads at one shard and at two, each against its own budget.
func TestWorkBudgets(t *testing.T) {
	for _, sl := range steadyLoads {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%d shards", sl.name, shards), func(t *testing.T) {
				c, done := startSteady(sl, shards)
				if err := c.RunUntil(2 * sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				ops0, items0 := done(), c.Group.Executed()
				if err := c.RunUntil(c.Group.Now() + 2*sim.Millisecond); err != nil {
					t.Fatal(err)
				}
				n := done() - ops0
				if n < 1000 {
					t.Fatalf("only %d ops in the measured window", n)
				}
				per := float64(c.Group.Executed()-items0) / float64(n)
				t.Logf("%.3f work items per op", per)
				if budget := workBudgets[sl.name][shards-1]; per > budget {
					t.Errorf("%.3f work items per op, budget %.1f", per, budget)
				}
			})
		}
	}
}
