package core

// Multi-core workstations: several cores share one node's MMU, memory,
// OS and HIB. The tests pin down the three properties that matter —
// cores are real concurrent programs, their remote traffic contends for
// the single board, and traffic between cores of one node takes the
// board's loopback fast path without ever touching the fabric.

import (
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/cpu"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
)

// TestMulticoreRemoteWrites runs four cores on every node of a 2D torus,
// each storing a distinct value into shared memory homed on the next
// node, and checks every value landed.
func TestMulticoreRemoteWrites(t *testing.T) {
	cfg := params.Default(4)
	cfg.Topology = "torus2d"
	cfg.CoresPerNode = 4
	cfg.Sizing.MemBytes = 1 << 20
	c := New(cfg)
	if c.Cores() != 4 {
		t.Fatalf("Cores() = %d, want 4", c.Cores())
	}

	n := c.N()
	base := make([]addrspace.VAddr, n)
	for i := 0; i < n; i++ {
		base[i] = c.AllocShared(addrspace.NodeID(i), 8*c.Cores())
	}
	for i := 0; i < n; i++ {
		for co := 0; co < c.Cores(); co++ {
			i, co := i, co
			dst := (i + 1) % n
			c.SpawnCore(i, co, "w", func(ctx *cpu.Ctx) {
				ctx.Store(base[dst]+addrspace.VAddr(8*co), uint64(100*i+co))
				ctx.Fence()
			})
		}
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		dst := (i + 1) % n
		for co := 0; co < c.Cores(); co++ {
			off := c.SharedOffset(base[dst] + addrspace.VAddr(8*co))
			if got := c.Nodes[dst].Mem.ReadWord(off); got != uint64(100*i+co) {
				t.Fatalf("node %d word %d = %d, want %d", dst, co, got, 100*i+co)
			}
		}
	}
}

// TestCoresHaveDistinctContexts checks each core got its own Telegraphos
// context on the shared board, so per-core atomics cannot collide.
func TestCoresHaveDistinctContexts(t *testing.T) {
	cfg := params.Default(2)
	cfg.CoresPerNode = 3
	cfg.Sizing.MemBytes = 1 << 20
	c := New(cfg)
	seen := map[int]bool{}
	for _, pr := range c.Nodes[0].CPUs {
		if seen[pr.CtxID] {
			t.Fatalf("context %d allocated twice", pr.CtxID)
		}
		seen[pr.CtxID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("got %d contexts, want 3", len(seen))
	}
}

// TestIntraNodeFastPathBypassesFabric sends a message from one core to
// its own node and checks it is delivered by the board's loopback path:
// no switch forwards a single packet.
func TestIntraNodeFastPathBypassesFabric(t *testing.T) {
	cfg := params.Default(4)
	cfg.Topology = "torus2d"
	cfg.CoresPerNode = 2
	cfg.Sizing.MemBytes = 1 << 20
	c := New(cfg)

	var got []uint64
	c.Nodes[1].HIB.SetMsgSink(func(pkt *packet.Packet) {
		got = append(got, pkt.Data...)
	})
	c.SpawnCore(1, 1, "self-send", func(ctx *cpu.Ctx) {
		ctx.CPU.HIB.Post(&packet.Packet{
			Type: packet.MsgData,
			Dst:  1,
			Len:  2,
			Data: []uint64{7, 9},
		})
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("loopback delivery = %v, want [7 9]", got)
	}
	for _, sw := range c.Net.Switches {
		if f := sw.Forwarded(); f != 0 {
			t.Fatalf("switch %s forwarded %d packets; self-send must bypass the fabric", sw.Name(), f)
		}
	}
}

// TestMulticoreNICContention checks cores genuinely share the one HIB:
// four cores streaming remote writes through a single board take
// several times as long as one core issuing the same per-core load,
// because the injection wire serializes them.
func TestMulticoreNICContention(t *testing.T) {
	elapsed := func(cores int) sim.Time {
		cfg := params.Default(2)
		cfg.CoresPerNode = cores
		cfg.Sizing.MemBytes = 1 << 20
		c := New(cfg)
		x := c.AllocShared(1, 8*cores)
		var end sim.Time
		for co := 0; co < cores; co++ {
			co := co
			c.SpawnCore(0, co, "stream", func(ctx *cpu.Ctx) {
				for k := 0; k < 200; k++ {
					ctx.Store(x+addrspace.VAddr(8*co), uint64(k))
				}
				ctx.Fence()
				if now := ctx.Now(); now > end {
					end = now
				}
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	one, four := elapsed(1), elapsed(4)
	if four < 3*one {
		t.Fatalf("4 cores finished in %v vs %v for 1: the shared HIB should serialize them", four, one)
	}
}

// TestGeneratedTopologyClusters builds a full cluster on every generated
// shape, runs a neighbor write + read-back on each node, and requires
// the result — values and virtual completion times — to be identical on
// 1 and 2 shards.
func TestGeneratedTopologyClusters(t *testing.T) {
	for _, topo := range []string{"torus2d", "torus3d", "fattree", "dragonfly", "dragonfly-val"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			run := func(shards int) (vals []uint64, fingerprint sim.Time) {
				cfg := params.Default(8)
				cfg.Topology = topo
				cfg.Shards = shards
				cfg.Sizing.MemBytes = 1 << 20
				c := New(cfg)
				n := c.N()
				base := make([]addrspace.VAddr, n)
				for i := 0; i < n; i++ {
					base[i] = c.AllocShared(addrspace.NodeID(i), 8)
				}
				ends := make([]sim.Time, n)
				got := make([]uint64, n)
				for i := 0; i < n; i++ {
					i := i
					c.Spawn(i, "w", func(ctx *cpu.Ctx) {
						ctx.Store(base[(i+1)%n], uint64(1000+i))
						ctx.Fence()
						got[i] = ctx.Load(base[(i+1)%n])
						ends[i] = ctx.Now()
					})
				}
				if err := c.Run(); err != nil {
					t.Fatal(err)
				}
				var sum sim.Time
				for _, e := range ends {
					sum += e
				}
				return got, sum
			}
			v1, f1 := run(1)
			v2, f2 := run(2)
			for i, v := range v1 {
				if v != uint64(1000+i) {
					t.Fatalf("node %d read back %d, want %d", i, v, 1000+i)
				}
				if v2[i] != v {
					t.Fatalf("node %d differs across shards: %d vs %d", i, v, v2[i])
				}
			}
			if f1 != f2 {
				t.Fatalf("completion fingerprint differs across shards: %v vs %v", f1, f2)
			}
		})
	}
}
