package core

import (
	"errors"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/cpu"
	"telegraphos/internal/hib"
	"telegraphos/internal/mmu"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
)

func twoNodes(t *testing.T) *Cluster {
	t.Helper()
	cfg := params.Default(2)
	cfg.Sizing.MemBytes = 1 << 20 // keep tests light
	return New(cfg)
}

func TestRemoteWriteDeliversValue(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8) // homed on node 1
	done := false
	c.Spawn(0, "writer", func(ctx *cpu.Ctx) {
		ctx.Store(x, 42)
		ctx.Fence()
		done = true
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("writer did not finish")
	}
	if got := c.Nodes[1].Mem.ReadWord(c.SharedOffset(x)); got != 42 {
		t.Fatalf("home memory = %d, want 42", got)
	}
}

func TestRemoteReadReturnsValue(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	c.Nodes[1].Mem.WriteWord(c.SharedOffset(x), 1234)
	var got uint64
	c.Spawn(0, "reader", func(ctx *cpu.Ctx) {
		got = ctx.Load(x)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1234 {
		t.Fatalf("remote read = %d, want 1234", got)
	}
}

// TestE1Calibration checks the two anchor latencies of §3.2: a stream of
// remote writes runs at ~0.70 µs/op (network rate) and a remote read
// round-trips in ~7.2 µs.
func TestE1Calibration(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 4096)
	const nw = 10000
	var writeElapsed, readStart, readElapsed sim.Time
	c.Spawn(0, "bench", func(ctx *cpu.Ctx) {
		start := ctx.Now()
		for i := 0; i < nw; i++ {
			ctx.Store(x, uint64(i))
		}
		ctx.Fence()
		writeElapsed = ctx.Now() - start

		// Warm the TLB on a second word, then time the read itself.
		ctx.Load(x.Shadow().Base() + 8)
		readStart = ctx.Now()
		ctx.Load(x + 8)
		readElapsed = ctx.Now() - readStart
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	perWrite := writeElapsed.Micros() / nw
	if perWrite < 0.60 || perWrite > 0.80 {
		t.Errorf("long-stream remote write = %.3f µs/op, want ≈ 0.70", perWrite)
	}
	if r := readElapsed.Micros(); r < 6.5 || r > 8.0 {
		t.Errorf("remote read = %.2f µs, want ≈ 7.2", r)
	}
}

// TestE2ShortBatchFasterThanStream checks the §3.2 claim that a short
// batch of 100 writes completes at the CPU issue rate (< 0.5 µs each)
// thanks to HIB queueing.
func TestE2ShortBatchFasterThanStream(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	var elapsed sim.Time
	c.Spawn(0, "batch", func(ctx *cpu.Ctx) {
		ctx.Store(x, 0) // warm TLB
		start := ctx.Now()
		for i := 0; i < 100; i++ {
			ctx.Store(x, uint64(i))
		}
		elapsed = ctx.Now() - start
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if us := elapsed.Micros(); us >= 50 {
		t.Errorf("100-write batch took %.1f µs, paper: < 50 µs", us)
	}
}

func TestFenceWaitsForAllWrites(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 4096)
	var fenced sim.Time
	c.Spawn(0, "w", func(ctx *cpu.Ctx) {
		for i := 0; i < 10; i++ {
			ctx.Store(x+addrspace.VAddr(8*i), uint64(i))
		}
		ctx.Fence()
		fenced = ctx.Now()
		if c.Nodes[0].HIB.Outstanding() != 0 {
			t.Error("outstanding ops after fence")
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// After the fence every value must be visible at the home node.
	for i := 0; i < 10; i++ {
		if got := c.Nodes[1].Mem.ReadWord(c.SharedOffset(x) + uint64(8*i)); got != uint64(i) {
			t.Fatalf("word %d = %d after fence", i, got)
		}
	}
	if fenced == 0 {
		t.Fatal("fence did not run")
	}
}

func TestAtomicFetchAndInc(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	vals := make(map[uint64]bool)
	for n := 0; n < 2; n++ {
		c.Spawn(n, "inc", func(ctx *cpu.Ctx) {
			for i := 0; i < 5; i++ {
				old := ctx.FetchAndInc(x)
				if vals[old] {
					t.Errorf("fetch&inc returned duplicate value %d", old)
				}
				vals[old] = true
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[1].Mem.ReadWord(c.SharedOffset(x)); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if len(vals) != 10 {
		t.Fatalf("saw %d distinct fetched values, want 10", len(vals))
	}
}

func TestAtomicFetchAndStoreAndCAS(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	c.Spawn(0, "ops", func(ctx *cpu.Ctx) {
		if old := ctx.FetchAndStore(x, 7); old != 0 {
			t.Errorf("fetch&store old = %d, want 0", old)
		}
		if old := ctx.CompareAndSwap(x, 9, 7); old != 7 {
			t.Errorf("CAS old = %d, want 7", old)
		}
		if got := ctx.Load(x); got != 9 {
			t.Errorf("after successful CAS, x = %d, want 9", got)
		}
		if old := ctx.CompareAndSwap(x, 11, 7); old != 9 {
			t.Errorf("failed CAS old = %d, want 9", old)
		}
		if got := ctx.Load(x); got != 9 {
			t.Errorf("failed CAS must not store: x = %d", got)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteCopyPrefetch(t *testing.T) {
	c := twoNodes(t)
	src := c.AllocShared(1, 4096) // remote data, homed on 1
	dst := c.AllocShared(0, 4096) // local buffer, homed on 0
	for i := 0; i < 16; i++ {
		c.Nodes[1].Mem.WriteWord(c.SharedOffset(src)+uint64(8*i), uint64(100+i))
	}
	c.Spawn(0, "copier", func(ctx *cpu.Ctx) {
		ctx.RemoteCopy(dst, src, 16)
		ctx.Fence() // completion detection via outstanding counter
		for i := 0; i < 16; i++ {
			if got := ctx.Load(dst + addrspace.VAddr(8*i)); got != uint64(100+i) {
				t.Errorf("copied word %d = %d, want %d", i, got, 100+i)
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteCopyIsNonBlocking(t *testing.T) {
	c := twoNodes(t)
	src := c.AllocShared(1, 1<<16)
	dst := c.AllocShared(0, 1<<16)
	var launchTime, fenceTime sim.Time
	c.Spawn(0, "copier", func(ctx *cpu.Ctx) {
		start := ctx.Now()
		ctx.RemoteCopy(dst, src, 1000)
		launchTime = ctx.Now() - start
		ctx.Fence()
		fenceTime = ctx.Now() - start
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if launchTime >= fenceTime/2 {
		t.Fatalf("copy launch (%v) should be far cheaper than completion (%v)", launchTime, fenceTime)
	}
}

func TestProtectionUnmappedNodeFaults(t *testing.T) {
	c := New(params.Default(3))
	x := c.AllocSharedOn(1, 8, []int{0, 1}) // node 2 has no right
	var err0, err2 error
	c.Spawn(0, "ok", func(ctx *cpu.Ctx) { err0 = ctx.TryStore(x, 5) })
	c.Spawn(2, "bad", func(ctx *cpu.Ctx) { _, err2 = ctx.TryLoad(x) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err0 != nil {
		t.Fatalf("authorized node faulted: %v", err0)
	}
	var fault *mmu.Fault
	if !errors.As(err2, &fault) || fault.Reason != mmu.FaultUnmapped {
		t.Fatalf("unauthorized node got %v, want unmapped fault", err2)
	}
}

func TestShadowStoreWrongKeyRejected(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	c.Nodes[0].CPU.Key ^= 0xFFFF // corrupt the key: launches must fail
	var got uint64
	c.Spawn(0, "attacker", func(ctx *cpu.Ctx) {
		got = ctx.FetchAndInc(x)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != hib.LaunchError {
		t.Fatalf("launch with wrong key returned %#x, want LaunchError", got)
	}
	if c.Nodes[0].HIB.Counters.Get("shadow-rejected") == 0 {
		t.Fatal("shadow store with bad key not rejected")
	}
	if c.Nodes[1].Mem.ReadWord(c.SharedOffset(x)) != 0 {
		t.Fatal("memory modified despite rejected launch")
	}
}

func TestPageAccessCounterAlarm(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	gp := addrspace.GPageOf(c.SharedGAddr(x), c.PageSize())
	c.Nodes[0].HIB.SetPageCounter(gp, 0, 3) // alarm after 3 writes
	var alarms []uint64
	c.Nodes[0].OS.SetInterruptHandler(osmodel.IntrPageCounter, func(p *sim.Proc, arg uint64) {
		alarms = append(alarms, arg)
	})
	c.Spawn(0, "w", func(ctx *cpu.Ctx) {
		for i := 0; i < 5; i++ {
			ctx.Store(x, uint64(i))
		}
		ctx.Fence()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 1 {
		t.Fatalf("got %d alarms, want exactly 1", len(alarms))
	}
	gotPage, isWrite := hib.DecodePageArg(alarms[0])
	if gotPage != gp || !isWrite {
		t.Fatalf("alarm arg decodes to %v/%v, want %v/write", gotPage, isWrite, gp)
	}
	// Counter pinned at zero afterwards.
	_, w, ok := c.Nodes[0].HIB.PageCounter(gp)
	if !ok || w != 0 {
		t.Fatalf("counter after alarm = %d, want 0", w)
	}
}

func TestMulticastEagerUpdate(t *testing.T) {
	c := New(params.Default(4))
	// One page homed on node 0, mapped out to the same page offset on
	// nodes 1, 2, 3.
	x := c.AllocShared(0, 8)
	off := c.SharedOffset(x)
	pn := addrspace.PageOf(off, c.PageSize())
	err := c.Nodes[0].HIB.MapMulticast(pn,
		addrspace.GPage{Node: 1, Page: pn},
		addrspace.GPage{Node: 2, Page: pn},
		addrspace.GPage{Node: 3, Page: pn})
	if err != nil {
		t.Fatal(err)
	}
	c.Spawn(0, "producer", func(ctx *cpu.Ctx) {
		ctx.Store(x, 77)
		ctx.Fence()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		if got := c.Nodes[n].Mem.ReadWord(off); got != 77 {
			t.Errorf("node %d copy = %d, want 77 (eager update)", n, got)
		}
	}
}

func TestPrivateMemoryIsolated(t *testing.T) {
	c := twoNodes(t)
	a0 := c.AllocPrivate(0, 4096)
	a1 := c.AllocPrivate(1, 4096)
	if a0 != a1 {
		t.Fatalf("private VAs should coincide across nodes: %#x vs %#x", uint64(a0), uint64(a1))
	}
	c.Spawn(0, "p0", func(ctx *cpu.Ctx) { ctx.Store(a0, 111) })
	c.Spawn(1, "p1", func(ctx *cpu.Ctx) { ctx.Store(a1, 222) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var v0, v1 uint64
	c.Spawn(0, "r0", func(ctx *cpu.Ctx) { v0 = ctx.Load(a0) })
	c.Spawn(1, "r1", func(ctx *cpu.Ctx) { v1 = ctx.Load(a1) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if v0 != 111 || v1 != 222 {
		t.Fatalf("private memory leaked across nodes: %d/%d", v0, v1)
	}
	if c.Nodes[0].HIB.Counters.Get("remote-write") != 0 {
		t.Fatal("private store generated network traffic")
	}
}

func TestLocalSharedAccessPlacementCost(t *testing.T) {
	measure := func(pl params.Placement) sim.Time {
		cfg := params.Default(2)
		cfg.Placement = pl
		c := New(cfg)
		x := c.AllocShared(0, 8)
		var elapsed sim.Time
		c.Spawn(0, "local", func(ctx *cpu.Ctx) {
			ctx.Store(x, 1) // warm TLB
			start := ctx.Now()
			for i := 0; i < 100; i++ {
				_ = ctx.Load(x)
			}
			elapsed = ctx.Now() - start
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	onHIB := measure(params.SharedOnHIB)
	inMain := measure(params.SharedInMain)
	if inMain >= onHIB {
		t.Fatalf("Telegraphos II local shared access (%v) should beat Telegraphos I (%v)", inMain, onHIB)
	}
}

func TestRemapShared(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	// Give node 0 a local replica and repoint its mapping.
	c.Nodes[0].Mem.WriteWord(c.SharedOffset(x), 555)
	c.RemapShared(0, x, 0)
	var got uint64
	c.Spawn(0, "r", func(ctx *cpu.Ctx) { got = ctx.Load(x) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 555 {
		t.Fatalf("after remap, load = %d, want local replica 555", got)
	}
	if c.Nodes[0].HIB.Counters.Get("remote-read") != 0 {
		t.Fatal("remapped access still went remote")
	}
}

func TestSharedGAddrAndHomeOf(t *testing.T) {
	c := twoNodes(t)
	x := c.AllocShared(1, 8)
	g := c.SharedGAddr(x)
	if g.Node() != 1 || g.Offset() != c.SharedOffset(x) {
		t.Fatalf("SharedGAddr = %v", g)
	}
	if c.HomeOf(c.SharedOffset(x)) != 1 {
		t.Fatal("HomeOf wrong")
	}
	if SharedVA(c.SharedOffset(x)) != x {
		t.Fatal("SharedVA inverse wrong")
	}
}

func TestChainClusterEndToEnd(t *testing.T) {
	cfg := params.Default(6)
	cfg.Topology = "chain"
	cfg.ChainPerSwitch = 2
	c := New(cfg)
	x := c.AllocShared(5, 8)
	var got uint64
	c.Spawn(0, "w", func(ctx *cpu.Ctx) {
		ctx.Store(x, 99)
		ctx.Fence()
		got = ctx.Load(x)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("cross-chain access = %d", got)
	}
}

// TestNewBuildsEveryTopology: every fabric params.Topologies names (the
// list tgsim's -topology help and the config loader take) is one New
// builds, and each one carries a remote store.
func TestNewBuildsEveryTopology(t *testing.T) {
	for _, name := range params.Topologies {
		nodes := 8
		if name == "pair" {
			nodes = 2
		}
		if err := params.CheckTopology(name, nodes); err != nil {
			t.Fatal(err)
		}
		cfg := params.Default(nodes)
		cfg.Topology = name
		cfg.Sizing.MemBytes = 1 << 20
		c := New(cfg)
		dst := c.AllocShared(addrspace.NodeID(nodes-1), 8)
		c.Spawn(0, "store", func(ctx *cpu.Ctx) {
			ctx.Store(dst, 7)
			ctx.Fence()
		})
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := c.Nodes[nodes-1].Mem.ReadWord(c.SharedOffset(dst)); got != 7 {
			t.Errorf("%s: remote store landed %d, want 7", name, got)
		}
	}
}
