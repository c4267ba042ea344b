package experiments

import (
	"fmt"

	"telegraphos/internal/collective"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
	"telegraphos/internal/switchfab"
	"telegraphos/internal/tsync"
)

// collCluster builds a tree-fabric cluster for the collective
// experiments; memory is kept small so the big-node sweeps stay cheap.
func collCluster(n int) *core.Cluster {
	cfg := params.Default(n)
	cfg.Seed = baseSeed
	cfg.Topology = "tree"
	cfg.Sizing.MemBytes = 1 << 16
	cfg.Shards = shardCount
	return core.New(cfg)
}

// barrierRoundTime measures the mean time of one barrier episode over
// rounds synchronizations of all n nodes, host-side (the tsync
// hot-counter barrier) or in-fabric (the switch-resident combining
// barrier).
func barrierRoundTime(n, rounds int, fabric bool) sim.Time {
	c := collCluster(n)
	var participant func() interface{ Wait(*cpu.Ctx) }
	if fabric {
		b := collective.New(c).NewBarrier()
		participant = func() interface{ Wait(*cpu.Ctx) } { return b.Participant() }
	} else {
		b := tsync.NewBarrier(c, 0, n)
		participant = func() interface{ Wait(*cpu.Ctx) } { return b.Participant() }
	}
	for i := 0; i < n; i++ {
		w := participant()
		c.Spawn(i, "p", func(ctx *cpu.Ctx) {
			for r := 0; r < rounds; r++ {
				w.Wait(ctx)
			}
		})
	}
	settle(c)
	return c.Eng.Now() / sim.Time(rounds)
}

// faaRunTime measures the completion time of n nodes each issuing per
// fetch&increments on one hot counter homed on node 0, with or without
// in-switch combining. It also reports how many requests the fabric
// merged and the counter's final value — combining must be invisible:
// the final count equals n*per either way.
func faaRunTime(n, per int, combine bool) (sim.Time, int64, uint64) {
	c := collCluster(n)
	if combine {
		collective.New(c).EnableCombining(switchfab.CombineConfig{})
	}
	va := c.AllocShared(0, 8)
	for i := 0; i < n; i++ {
		c.Spawn(i, "p", func(ctx *cpu.Ctx) {
			for k := 0; k < per; k++ {
				ctx.FetchAndInc(va)
			}
		})
	}
	settle(c)
	t := c.Eng.Now()
	var final uint64
	c.Spawn(0, "check", func(ctx *cpu.Ctx) { final = ctx.Load(va) })
	settle(c)
	return t, collective.FabricStats(c.Net).Combined, final
}

// E15Sizes is the node-count sweep the registry run measures. The full
// paper-scale sweep (64–1024 nodes, EXPERIMENTS.md) is produced by
// E15Scale, reachable through cmd/tgbench -collscale.
var E15Sizes = []int{8, 16, 32, 64}

// E15Scale sweeps host-side vs in-fabric barrier latency over sizes,
// returning one series per implementation (mean µs per barrier episode).
func E15Scale(sizes []int, rounds int) (host, fabric stats.Series) {
	host = stats.Series{Name: "E15: host-side barrier latency vs nodes", XLabel: "nodes", YLabel: "latency_us"}
	fabric = stats.Series{Name: "E15: in-fabric barrier latency vs nodes", XLabel: "nodes", YLabel: "latency_us"}
	for _, n := range sizes {
		host.Add(float64(n), barrierRoundTime(n, rounds, false).Micros())
		fabric.Add(float64(n), barrierRoundTime(n, rounds, true).Micros())
	}
	return host, fabric
}

// E15InFabricCollectives compares host-side synchronization built from
// remote atomic operations against the in-network collective subsystem:
// the switch-resident barrier's latency grows with tree depth — O(log N)
// — while the hot-counter barrier serializes all N arrivals at one home
// board, and in-switch combining lifts hot-spot fetch&add throughput the
// way the NYU Ultracomputer combining network does.
func E15InFabricCollectives() *Result {
	const rounds = 2
	hostSeries, fabricSeries := E15Scale(E15Sizes, rounds)

	lo, hi := 0, len(E15Sizes)-1
	hostLo, hostHi := hostSeries.Points[lo].Y, hostSeries.Points[hi].Y
	fabLo, fabHi := fabricSeries.Points[lo].Y, fabricSeries.Points[hi].Y
	hostGrowth := hostHi / hostLo
	fabGrowth := fabHi / fabLo

	const faaNodes, faaPer = 64, 4
	plainT, _, plainFinal := faaRunTime(faaNodes, faaPer, false)
	combT, merged, combFinal := faaRunTime(faaNodes, faaPer, true)
	speedup := plainT.Micros() / combT.Micros()
	equivalent := plainFinal == faaNodes*faaPer && combFinal == plainFinal

	return &Result{
		ID:       "E15",
		Title:    "In-network collectives vs host-side synchronization",
		Artifact: "§2.2.4 hot-spot atomics; switch-resident combining",
		Rows: []Row{
			{Name: fmt.Sprintf("Host barrier growth %d→%d nodes", E15Sizes[lo], E15Sizes[hi]),
				Paper:    "O(N): serialized home-board arrivals",
				Measured: fmt.Sprintf("%.1f µs -> %.1f µs (%.1fx)", hostLo, hostHi, hostGrowth),
				Match:    hostGrowth > 4},
			{Name: fmt.Sprintf("In-fabric barrier growth %d→%d nodes", E15Sizes[lo], E15Sizes[hi]),
				Paper:    "O(log N): one combining wave per tree level",
				Measured: fmt.Sprintf("%.1f µs -> %.1f µs (%.1fx)", fabLo, fabHi, fabGrowth),
				Match:    fabGrowth < hostGrowth/2},
			{Name: fmt.Sprintf("Head-to-head at %d nodes", E15Sizes[hi]),
				Paper:    "in-fabric wins, margin grows with N",
				Measured: fmt.Sprintf("host %.1f µs vs fabric %.1f µs (%.1fx)", hostHi, fabHi, hostHi/fabHi),
				Match:    fabHi*2 < hostHi},
			{Name: fmt.Sprintf("Hot-counter fetch&add, %d nodes x %d ops", faaNodes, faaPer),
				Paper:    "combining relieves the hot spot, same final count",
				Measured: fmt.Sprintf("%.1f µs -> %.1f µs (%.2fx, %d merged, final %d=%d)", plainT.Micros(), combT.Micros(), speedup, merged, plainFinal, combFinal),
				Match:    speedup > 1.5 && merged > 0 && equivalent},
		},
		Series: []stats.Series{hostSeries, fabricSeries},
	}
}
