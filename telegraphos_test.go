package telegraphos_test

import (
	"testing"

	tg "telegraphos"
)

func TestFacadeQuickstart(t *testing.T) {
	c := tg.NewCluster(tg.WithNodes(2), tg.WithSeed(7))
	x := c.AllocShared(1, 8)
	var v uint64
	c.Spawn(0, "p", func(ctx *tg.Ctx) {
		ctx.Store(x, 42)
		ctx.Fence()
		v = ctx.Load(x)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("round trip = %d", v)
	}
}

func TestFacadeOptions(t *testing.T) {
	c := tg.NewCluster(
		tg.WithNodes(6),
		tg.WithTopology("chain"),
		tg.WithChainPerSwitch(2),
		tg.WithPlacement(tg.PlacementMain),
	)
	if c.N() != 6 {
		t.Fatalf("nodes = %d", c.N())
	}
	if c.Net.Kind() != "chain" {
		t.Fatalf("topology = %s", c.Net.Kind())
	}
	x := c.AllocShared(5, 8)
	var ok bool
	c.Spawn(0, "p", func(ctx *tg.Ctx) {
		ctx.Store(x, 9)
		ctx.Fence()
		ok = ctx.Load(x) == 9
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("chain access failed")
	}
}

func TestFacadeWithConfig(t *testing.T) {
	cfg := tg.DefaultConfig(3)
	cfg.Sizing.HIBWriteQueue = 4
	c := tg.NewCluster(tg.WithConfig(cfg))
	if c.N() != 3 {
		t.Fatal("WithConfig ignored")
	}
}

func TestFacadeLockAndBarrier(t *testing.T) {
	c := tg.NewCluster(tg.WithNodes(2))
	l := c.NewLock(0)
	b := c.NewBarrier(0, 2)
	count := c.AllocShared(0, 8)
	for i := 0; i < 2; i++ {
		w := b.Participant()
		c.Spawn(i, "p", func(ctx *tg.Ctx) {
			for k := 0; k < 3; k++ {
				l.Acquire(ctx)
				ctx.Store(count, ctx.Load(count)+1)
				l.Release(ctx)
			}
			w.Wait(ctx)
			if got := ctx.Load(count); got != 6 {
				t.Errorf("after barrier count = %d, want 6", got)
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeChannel(t *testing.T) {
	c := tg.NewCluster(tg.WithNodes(2))
	ch := c.NewChannel(1, 16)
	var got []uint64
	c.Spawn(0, "p", func(ctx *tg.Ctx) { ch.Send(ctx, []uint64{1, 2, 3}) })
	c.Spawn(1, "q", func(ctx *tg.Ctx) { got = ch.Recv(ctx, 3) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("channel got %v", got)
	}
}

func TestFacadeUpdateCoherence(t *testing.T) {
	c := tg.NewCluster(tg.WithNodes(3))
	u := c.AttachUpdateCoherence(tg.CountersCached)
	x := c.AllocShared(0, 8)
	u.SharePage(x, 0, []int{0, 1, 2})
	c.Spawn(1, "w", func(ctx *tg.Ctx) {
		ctx.Store(x, 5)
		ctx.Fence()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	off := c.SharedOffset(x)
	for n := 0; n < 3; n++ {
		if got := c.Nodes[n].Mem.ReadWord(off); got != 5 {
			t.Fatalf("node %d copy = %d", n, got)
		}
	}
}

func TestFacadePaging(t *testing.T) {
	c := tg.NewCluster(tg.WithNodes(2))
	refs := tg.GenPageRefs(3, 50, 8, 0.8, 0.2)
	res, err := c.RunPaging(0, tg.PagingConfig{LocalFrames: 4, Backend: tg.PageToRemoteMemory, Server: 1}, refs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 || res.Elapsed == 0 {
		t.Fatalf("paging did nothing: %+v", res)
	}
}

func TestFacadeMsgSystem(t *testing.T) {
	c := tg.NewCluster(tg.WithNodes(2))
	sys := c.NewMsgSystem()
	var got []uint64
	c.Spawn(0, "s", func(ctx *tg.Ctx) { sys.Send(ctx, 1, 4, []uint64{8}) })
	c.Spawn(1, "r", func(ctx *tg.Ctx) { got = sys.Recv(ctx, 4) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 8 {
		t.Fatalf("msg got %v", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() tg.Time {
		c := tg.NewCluster(tg.WithNodes(3), tg.WithSeed(11))
		u := c.AttachUpdateCoherence(tg.CountersCached)
		x := c.AllocShared(0, 4096)
		u.SharePage(x, 0, []int{0, 1, 2})
		for i := 0; i < 3; i++ {
			i := i
			c.Spawn(i, "w", func(ctx *tg.Ctx) {
				for k := 0; k < 50; k++ {
					ctx.Store(x+tg.VAddr(8*((k*3+i)%64)), uint64(k))
					ctx.Compute(tg.Microsecond)
				}
				ctx.Fence()
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Eng.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("nondeterministic: %v vs %v", first, again)
		}
	}
}

// TestWithFaultPlanKeepsMemory: a two-node program run over links that
// drop, duplicate and reorder frames ends with the same memory as a
// clean run, because the link-level retransmission layer recovers every
// fault; the fault counters show the plan was in force.
func TestWithFaultPlanKeepsMemory(t *testing.T) {
	const words = 32
	run := func(opts ...tg.Option) ([]uint64, *tg.Cluster) {
		c := tg.NewCluster(append([]tg.Option{tg.WithNodes(2), tg.WithSeed(3)}, opts...)...)
		data := []tg.VAddr{c.AllocShared(0, 8*words), c.AllocShared(1, 8*words)}
		counter := c.AllocShared(1, 8)
		for n := 0; n < 2; n++ {
			dst := data[1-n]
			c.Spawn(n, "writer", func(ctx *tg.Ctx) {
				for i := 0; i < words; i++ {
					ctx.Store(dst+tg.VAddr(8*i), uint64(100*n+i))
					ctx.FetchAndInc(counter)
				}
				ctx.Fence()
			})
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var mem []uint64
		c.Spawn(0, "reader", func(ctx *tg.Ctx) {
			for _, base := range data {
				for i := 0; i < words; i++ {
					mem = append(mem, ctx.Load(base+tg.VAddr(8*i)))
				}
			}
			mem = append(mem, ctx.Load(counter))
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return mem, c
	}
	clean, _ := run()
	faulty, c := run(tg.WithFaultPlan(tg.FaultPlan{Seed: 9, DropProb: 0.1, DupProb: 0.1, ReorderProb: 0.1}))
	if len(clean) != len(faulty) {
		t.Fatalf("read %d words clean, %d faulty", len(clean), len(faulty))
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("word %d: %d under faults, %d clean", i, faulty[i], clean[i])
		}
	}
	if got := clean[len(clean)-1]; got != 2*words {
		t.Fatalf("counter = %d, want %d", got, 2*words)
	}
	fs := c.Net.FaultStats()
	if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 || fs.Retransmits == 0 {
		t.Fatalf("fault counters %+v: the plan injected too little", fs)
	}
}
