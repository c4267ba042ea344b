package experiments

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/cpu"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
	"telegraphos/internal/switchfab"
	"telegraphos/internal/topology"
)

// E13SwitchLoad characterizes the switch fabric the coherence protocol
// depends on ([16, 17]): lossless back-pressured delivery, in-order per
// source-destination pair, and the latency/throughput curve under
// uniform random traffic on an 8-port star.
func E13SwitchLoad() *Result {
	latSeries := stats.Series{Name: "E13: mean packet latency vs offered load", XLabel: "offered_load", YLabel: "latency_us"}
	thrSeries := stats.Series{Name: "E13: delivered/offered vs offered load", XLabel: "offered_load", YLabel: "delivered_fraction"}

	const nodes = 8
	const perNode = 200
	wirePerPkt := 5 * 140 * sim.Nanosecond // header words x word time

	var lossAny, reorderAny bool
	var latLow, latHigh float64
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.1}
	for _, load := range loads {
		eng := sim.NewEngine(41 + baseSeed)
		net := topology.Build(topology.Spec{Kind: "star", Nodes: nodes},
			func(int) *sim.Engine { return eng }, params.DefaultLink(), switchfab.Config{RouteDelay: 100})
		gap := sim.Time(float64(wirePerPkt) / load)

		type key struct{ src, dst addrspace.NodeID }
		sendT := make(map[uint64]sim.Time)
		lastSeq := make(map[key]uint64)
		var lat stats.Tally
		received := 0
		var seq uint64

		for s := 0; s < nodes; s++ {
			s := s
			eng.Spawn(fmt.Sprintf("src%d", s), func(p *sim.Proc) {
				rng := eng.Rand()
				start := p.Now()
				for i := 0; i < perNode; i++ {
					d := rng.Intn(nodes - 1)
					if d >= s {
						d++
					}
					seq++
					id := seq
					// Open-loop latency: stamp the *intended* injection
					// time, so source-side queueing under overload counts.
					sendT[id] = start + sim.Time(i)*gap
					sent := sim.NewCompletion(eng)
					net.SendEv(&packet.Packet{
						Type:  packet.WriteReq,
						Src:   addrspace.NodeID(s),
						Dst:   addrspace.NodeID(d),
						ReqID: id,
						Val:   uint64(i), // per-source sequence for order check
					}, sent.Complete)
					sent.Wait(p)
					// Pace to the intended schedule (open-loop source).
					if next := start + sim.Time(i+1)*gap; next > p.Now() {
						p.Sleep(next - p.Now())
					}
				}
			})
		}
		for dd := 0; dd < nodes; dd++ {
			id := addrspace.NodeID(dd)
			net.SetNotify(id, packet.VCRequest, func() {
				for {
					pkt, ok := net.TryRecv(id, packet.VCRequest)
					if !ok {
						return
					}
					lat.Add((eng.Now() - sendT[pkt.ReqID]).Micros())
					k := key{pkt.Src, pkt.Dst}
					if last, ok := lastSeq[k]; ok && pkt.Val <= last {
						reorderAny = true
					}
					lastSeq[k] = pkt.Val
					received++
				}
			})
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
		sent := nodes * perNode
		if received != sent {
			lossAny = true
		}
		latSeries.Add(load, lat.Mean())
		thrSeries.Add(load, float64(received)/float64(sent))
		if load == loads[0] {
			latLow = lat.Mean()
		}
		if load == loads[len(loads)-1] {
			latHigh = lat.Mean()
		}
	}

	return &Result{
		ID:       "E13",
		Title:    "Switch fabric under uniform load",
		Artifact: "§2.1 switch properties [16, 17]",
		Rows: []Row{
			{Name: "Loss under overload", Paper: "lossless (back-pressure)",
				Measured: fmt.Sprintf("loss=%v", lossAny), Match: !lossAny},
			{Name: "Per-pair ordering", Paper: "in-order delivery",
				Measured: fmt.Sprintf("reorder=%v", reorderAny), Match: !reorderAny},
			{Name: "Latency growth to saturation", Paper: "queueing grows near capacity",
				Measured: fmt.Sprintf("%.2f µs -> %.2f µs", latLow, latHigh), Match: latHigh > 2*latLow},
		},
		Series: []stats.Series{latSeries, thrSeries},
	}
}

// E14LaunchCost compares the two ways of launching a special (atomic)
// operation: the Telegraphos II user-level sequence — uncached stores
// into a context, a shadow store, a trigger read (§2.2.4) — against the
// "simplest way": trapping into the operating system (§2.2.5).
func E14LaunchCost() *Result {
	c := lightCluster(2)
	x := c.AllocShared(1, 8)
	const ops = 200
	var userUS, palUS, osUS float64
	c.Spawn(0, "bench", func(ctx *cpu.Ctx) {
		ctx.FetchAndInc(x) // warm TLB/context
		start := ctx.Now()
		for i := 0; i < ops; i++ {
			ctx.FetchAndInc(x)
		}
		userUS = (ctx.Now() - start).Micros() / ops

		start = ctx.Now()
		for i := 0; i < ops; i++ {
			ctx.AtomicPAL(packet.FetchAndInc, x, 0)
		}
		palUS = (ctx.Now() - start).Micros() / ops

		start = ctx.Now()
		for i := 0; i < ops; i++ {
			ctx.AtomicViaOS(packet.FetchAndInc, x, 0, 0)
		}
		osUS = (ctx.Now() - start).Micros() / ops
	})
	settle(c)
	ratio := osUS / userUS
	return &Result{
		ID:       "E14",
		Title:    "User-level vs PAL-code vs OS-trap launch of atomic operations",
		Artifact: "§2.2.4–§2.2.5",
		Rows: []Row{
			{Name: "User-level launch (contexts+shadow+key)", Paper: "a few µs (no OS)",
				Measured: fmt.Sprintf("%.2f µs", userUS), Match: userUS < 20},
			{Name: "PAL-code launch (Telegraphos I)", Paper: "uninterruptible, no trap; Alpha-specific",
				Measured: fmt.Sprintf("%.2f µs", palUS), Match: palUS < 20},
			{Name: "OS-trap launch", Paper: "adds trap + table lookup",
				Measured: fmt.Sprintf("%.2f µs (%.1fx user-level)", osUS, ratio), Match: ratio > 3},
		},
	}
}

// Unused-import guards for shared helpers.
var (
	_ = link.DefaultConfig
	_ = addrspace.WordSize
)
