package experiments

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/gates"
	"telegraphos/internal/params"
	"telegraphos/internal/stats"
)

// lightCluster builds a small-memory cluster for experiments.
func lightCluster(n int) *core.Cluster {
	cfg := params.Default(n)
	cfg.Seed = baseSeed
	cfg.Sizing.MemBytes = 1 << 21
	cfg.Shards = shardCount
	return core.New(cfg)
}

// E1Latency reproduces the §3.2 latency table: remote write 0.70 µs
// (long-stream network rate), remote read 7.2 µs, measured over 10,000
// operations on a two-workstation configuration.
func E1Latency() *Result {
	c := lightCluster(2)
	x := c.AllocShared(1, 4096)
	const ops = 10000
	var writeUS, readUS float64
	c.Spawn(0, "bench", func(ctx *cpu.Ctx) {
		start := ctx.Now()
		for i := 0; i < ops; i++ {
			ctx.Store(x, uint64(i))
		}
		ctx.Fence()
		writeUS = (ctx.Now() - start).Micros() / ops

		ctx.Load(x) // warm TLB and read slot
		var tally stats.Tally
		for i := 0; i < 1000; i++ {
			s := ctx.Now()
			ctx.Load(x)
			tally.Add((ctx.Now() - s).Micros())
		}
		readUS = tally.Mean()
	})
	if err := c.Run(); err != nil {
		panic(err)
	}
	return &Result{
		ID:       "E1",
		Title:    "Remote read / remote write latency",
		Artifact: "§3.2 latency table",
		Rows: []Row{
			{
				Name:     "Remote Write (stream of 10000)",
				Paper:    "0.70 µs",
				Measured: fmt.Sprintf("%.2f µs", writeUS),
				Match:    writeUS > 0.6 && writeUS < 0.8,
			},
			{
				Name:     "Remote Read",
				Paper:    "7.2 µs",
				Measured: fmt.Sprintf("%.2f µs", readUS),
				Match:    readUS > 6.5 && readUS < 8.0,
			},
			{
				Name:     "Read/write ratio",
				Paper:    "≈ 10x",
				Measured: fmt.Sprintf("%.1fx", readUS/writeUS),
				Match:    readUS/writeUS > 7 && readUS/writeUS < 14,
			},
		},
	}
}

// E2WriteBatch reproduces the §3.2 in-text claim: a short batch of 100
// remote writes completes in under 50 µs (< 0.5 µs per write), because
// the HIB's queue absorbs the burst at CPU issue rate, while long
// streams settle at the network transfer rate.
func E2WriteBatch() *Result {
	series := stats.Series{
		Name:   "E2: per-write latency vs batch size",
		XLabel: "batch_size",
		YLabel: "us_per_write",
	}
	var us100 float64
	for _, batch := range []int{1, 10, 100, 300, 1000, 10000} {
		c := lightCluster(2)
		x := c.AllocShared(1, 8)
		var perOp float64
		b := batch
		c.Spawn(0, "batch", func(ctx *cpu.Ctx) {
			ctx.Store(x, 0) // warm TLB
			start := ctx.Now()
			for i := 0; i < b; i++ {
				ctx.Store(x, uint64(i))
			}
			perOp = (ctx.Now() - start).Micros() / float64(b)
		})
		if err := c.Run(); err != nil {
			panic(err)
		}
		series.Add(float64(batch), perOp)
		if batch == 100 {
			us100 = perOp * 100
		}
	}
	return &Result{
		ID:       "E2",
		Title:    "Short write batches run at CPU issue rate",
		Artifact: "§3.2 in-text (100-write batch)",
		Rows: []Row{
			{
				Name:     "100 remote writes",
				Paper:    "< 50 µs (< 0.5 µs each)",
				Measured: fmt.Sprintf("%.1f µs (%.2f µs each)", us100, us100/100),
				Match:    us100 < 50,
			},
		},
		Series: []stats.Series{series},
		Notes:  "long batches converge to the 0.70 µs/op network rate of E1",
	}
}

// E3GateCount reproduces Table 1: the HIB hardware inventory. Logic
// constants are the published design values; SRAM sizes are computed
// from the configured capacities.
func E3GateCount() *Result {
	sz := params.DefaultSizing()
	rows := gates.Inventory(sz)
	shared := gates.SharedMemoryLogic(sz)
	msg := gates.MessageLogic(sz)
	var mcast, pagectr float64
	for _, r := range rows {
		switch r.Block {
		case "Multicast (eager sharing)":
			mcast = r.SRAMKbit
		case "Page Access Counters":
			pagectr = r.SRAMKbit
		}
	}
	return &Result{
		ID:       "E3",
		Title:    "HIB gate count and memory inventory",
		Artifact: "Table 1",
		Rows: []Row{
			{Name: "Message-related logic", Paper: "3300 gates", Measured: fmt.Sprintf("%d gates", msg), Match: msg == 3300},
			{Name: "Shared-memory logic", Paper: "2700 gates", Measured: fmt.Sprintf("%d gates", shared), Match: shared == 2700},
			{Name: "Multicast SRAM", Paper: "512 Kbit", Measured: fmt.Sprintf("%.0f Kbit", mcast), Match: mcast == 512},
			{Name: "Page counter SRAM", Paper: "2048 Kbit", Measured: fmt.Sprintf("%.0f Kbit", pagectr), Match: pagectr == 2048},
		},
		Notes: "run cmd/tggates for the full table",
	}
}

// streamVA is a helper giving the i-th word of a region.
func streamVA(base addrspace.VAddr, i int) addrspace.VAddr {
	return base + addrspace.VAddr(8*i)
}

// settle runs the cluster until quiescence, panicking on simulation
// errors (experiments are programs, not tests).
func settle(c *core.Cluster) {
	if err := c.Run(); err != nil {
		panic(err)
	}
}
