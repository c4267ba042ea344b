package core

import (
	"fmt"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/cpu"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// declineAll is a coherence layer that handles nothing: every hook
// hands the access back to the board's default behaviour.
type declineAll struct{}

func (declineAll) LocalSharedWrite(*sim.Proc, uint64, uint64) bool { return false }

func (declineAll) LocalSharedRead(*sim.Proc, uint64) (uint64, bool) { return 0, false }

func (declineAll) IncomingPacket(*packet.Packet, func()) bool { return false }

// TestDecliningCoherenceIsTimingNeutral pins the invariant the HIB's
// single receive path rests on: with a coherence layer installed every
// packet is offered to the layer first, and a packet the layer declines
// must then be serviced with exactly the timing it gets with no layer
// at all. An 8-node mix of remote
// stores, loads, fetch&inc and remote copies must yield the same trace
// hash and event count with and without a declining layer on every
// board.
func TestDecliningCoherenceIsTimingNeutral(t *testing.T) {
	run := func(topo string, shards int, decline bool) (uint64, uint64) {
		cfg := params.Default(8)
		cfg.Topology = topo
		cfg.Shards = shards
		cfg.Sizing.MemBytes = 1 << 20
		c := New(cfg)
		n := c.N()
		if decline {
			for _, node := range c.Nodes {
				node.HIB.SetCoherence(declineAll{})
			}
		}
		w := trace.NewWindowedLog(n, 0)
		c.AttachTrace(w)
		base := make([]addrspace.VAddr, n)
		for i := range base {
			base[i] = c.AllocShared(addrspace.NodeID(i), 1024)
		}
		for i := 0; i < n; i++ {
			i := i
			c.Spawn(i, "mix", func(ctx *cpu.Ctx) {
				next, far := base[(i+1)%n], base[(i+3)%n]
				for r := 0; r < 4; r++ {
					for k := 0; k < 16; k++ {
						ctx.Store(next+addrspace.VAddr(8*(i+n*k)), uint64(100*i+k))
					}
					ctx.Store(base[i]+addrspace.VAddr(8*r), uint64(r))
					ctx.Load(far + addrspace.VAddr(8*r))
					ctx.FetchAndInc(base[0] + 512*8)
					ctx.RemoteCopy(base[i]+256*8, far+128*8, 70)
					ctx.Load(base[i] + 8)
					ctx.Fence()
				}
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.DrainAll(); err != nil {
			t.Fatal(err)
		}
		return w.Hash(), w.Merged()
	}
	for _, topo := range []string{"star", "chain", "torus2d"} {
		for _, shards := range []int{1, 2, 4} {
			topo, shards := topo, shards
			t.Run(fmt.Sprintf("%s/shards=%d", topo, shards), func(t *testing.T) {
				plainHash, plainEvents := run(topo, shards, false)
				hash, events := run(topo, shards, true)
				if plainEvents == 0 {
					t.Fatal("workload recorded no events")
				}
				if hash != plainHash || events != plainEvents {
					t.Fatalf("declining coherence changed the trace: hash %#x (%d events), want %#x (%d events)",
						hash, events, plainHash, plainEvents)
				}
			})
		}
	}
}
