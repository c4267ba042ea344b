// Command tgsim runs an interactive-scale Telegraphos cluster simulation
// and prints per-node telemetry: a quick way to poke at the machine
// model without writing a program.
//
// Workloads:
//
//	pingpong   two nodes bounce a word via remote writes (default)
//	stream     node 0 streams writes to every other node
//	allatomic  every node hammers one fetch&inc counter
//	sharing    all nodes write a replicated page under update coherence
//
// Usage:
//
//	tgsim -nodes 4 -topology star -workload stream -ops 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/topology"
)

func main() {
	nodes := flag.Int("nodes", 2, "number of workstations")
	topo := flag.String("topology", "star", "fabric: "+strings.Join(topology.Kinds, ", "))
	perSwitch := flag.Int("per-switch", 4, "nodes per switch (chain)")
	placement := flag.String("placement", "hib", "shared-data placement: hib (Telegraphos I) or main (Telegraphos II)")
	work := flag.String("workload", "pingpong", "pingpong, stream, allatomic, sharing")
	ops := flag.Int("ops", 1000, "operations per node")
	seed := flag.Int64("seed", 1, "deterministic seed")
	configPath := flag.String("config", "", "JSON machine description (overrides other machine flags)")
	flag.Parse()

	if err := checkCounts(*nodes, *perSwitch, *ops); err != nil {
		fmt.Fprintf(os.Stderr, "tgsim: %v\n", err)
		os.Exit(2)
	}

	if *placement != "hib" && *placement != "main" {
		fmt.Fprintf(os.Stderr, "tgsim: unknown placement %q (want hib or main)\n", *placement)
		os.Exit(2)
	}

	var cfg params.Config
	if *configPath != "" {
		var err error
		cfg, err = params.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgsim: %v\n", err)
			os.Exit(1)
		}
	} else {
		cfg = params.Default(*nodes)
		cfg.Topology = *topo
		cfg.ChainPerSwitch = *perSwitch
		cfg.Seed = *seed
		cfg.Sizing.MemBytes = 1 << 22
		if *placement == "main" {
			cfg.Placement = params.SharedInMain
		}
	}
	if err := cfg.Fabric().Check(); err != nil {
		fmt.Fprintf(os.Stderr, "tgsim: %v\n", err)
		os.Exit(2)
	}
	c := core.New(cfg)

	switch *work {
	case "pingpong":
		pingpong(c, *ops)
	case "stream":
		stream(c, *ops)
	case "allatomic":
		allatomic(c, *ops)
	case "sharing":
		sharing(c, *ops)
	default:
		fmt.Fprintf(os.Stderr, "tgsim: unknown workload %q\n", *work)
		os.Exit(2)
	}

	if err := c.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "tgsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Print(c.Snapshot().Format())
}

// checkCounts rejects the count flags no run can honour: fewer than one
// node or one node per switch, or a negative -ops.
func checkCounts(nodes, perSwitch, ops int) error {
	switch {
	case nodes < 1:
		return fmt.Errorf("-nodes %d: want 1 or more", nodes)
	case perSwitch < 1:
		return fmt.Errorf("-per-switch %d: want 1 or more", perSwitch)
	case ops < 0:
		return fmt.Errorf("-ops %d: want 0 or more", ops)
	}
	return nil
}

func pingpong(c *core.Cluster, ops int) {
	if c.N() < 2 {
		fmt.Fprintln(os.Stderr, "tgsim: pingpong needs 2 nodes")
		os.Exit(2)
	}
	a := c.AllocShared(0, 8)
	b := c.AllocShared(1, 8)
	c.Spawn(0, "ping", func(ctx *cpu.Ctx) {
		for i := 1; i <= ops; i++ {
			ctx.Store(b, uint64(i)) // write into node 1's memory
			for ctx.Load(a) < uint64(i) {
				ctx.Compute(sim.Microsecond)
			}
		}
	})
	c.Spawn(1, "pong", func(ctx *cpu.Ctx) {
		for i := 1; i <= ops; i++ {
			for ctx.Load(b) < uint64(i) {
				ctx.Compute(sim.Microsecond)
			}
			ctx.Store(a, uint64(i))
		}
	})
}

func stream(c *core.Cluster, ops int) {
	targets := make([]addrspace.VAddr, c.N())
	for i := 1; i < c.N(); i++ {
		targets[i] = c.AllocShared(addrspace.NodeID(i), 4096)
	}
	c.Spawn(0, "streamer", func(ctx *cpu.Ctx) {
		for i := 0; i < ops; i++ {
			for t := 1; t < c.N(); t++ {
				ctx.Store(targets[t]+addrspace.VAddr(8*(i%512)), uint64(i))
			}
		}
		ctx.Fence()
	})
}

func allatomic(c *core.Cluster, ops int) {
	ctr := c.AllocShared(0, 8)
	for i := 0; i < c.N(); i++ {
		c.Spawn(i, "inc", func(ctx *cpu.Ctx) {
			for k := 0; k < ops; k++ {
				ctx.FetchAndInc(ctr)
			}
		})
	}
}

func sharing(c *core.Cluster, ops int) {
	u := coherence.NewUpdate(c, coherence.CountersCached)
	page := c.AllocShared(0, c.PageSize())
	all := make([]int, c.N())
	for i := range all {
		all[i] = i
	}
	u.SharePage(page, 0, all)
	for i := 0; i < c.N(); i++ {
		i := i
		c.Spawn(i, "writer", func(ctx *cpu.Ctx) {
			for k := 0; k < ops; k++ {
				w := (k*c.N() + i) % 256
				ctx.Store(page+addrspace.VAddr(8*w), uint64(k))
				ctx.Compute(2 * sim.Microsecond)
			}
			ctx.Fence()
		})
	}
}
