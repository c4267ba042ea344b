package dsm

import (
	"testing"

	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/linearize"
	"telegraphos/internal/msg"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

func setup(n int) (*core.Cluster, *DSM) {
	cfg := params.Default(n)
	cfg.Sizing.MemBytes = 1 << 20
	cfg.Sizing.PageSize = 1024 // lighter pages for tests
	c := core.New(cfg)
	return c, New(c, msg.NewSystem(c))
}

func TestReadFaultFetchesPage(t *testing.T) {
	c, d := setup(2)
	x := c.AllocShared(0, 8)
	c.Nodes[0].Mem.WriteWord(c.SharedOffset(x), 77)
	d.SharePage(x)
	var got uint64
	c.Spawn(1, "reader", func(ctx *cpu.Ctx) { got = ctx.Load(x) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("DSM read = %d, want 77", got)
	}
	if d.Counters().Get("read-faults") != 1 {
		t.Fatalf("read faults = %d, want 1", d.Counters().Get("read-faults"))
	}
}

func TestSecondReadIsLocal(t *testing.T) {
	c, d := setup(2)
	x := c.AllocShared(0, 8)
	d.SharePage(x)
	var first, second sim.Time
	c.Spawn(1, "reader", func(ctx *cpu.Ctx) {
		s := ctx.Now()
		ctx.Load(x)
		first = ctx.Now() - s
		s = ctx.Now()
		ctx.Load(x)
		second = ctx.Now() - s
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if second*10 >= first {
		t.Fatalf("after replication reads should be local: first=%v second=%v", first, second)
	}
}

func TestWriteFaultInvalidatesReaders(t *testing.T) {
	c, d := setup(3)
	x := c.AllocShared(0, 8)
	d.SharePage(x)
	// Both remote nodes read (get RO copies).
	c.Spawn(1, "r1", func(ctx *cpu.Ctx) { ctx.Load(x) })
	c.Spawn(2, "r2", func(ctx *cpu.Ctx) { ctx.Load(x) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Node 1 writes: node 2's copy must be invalidated.
	c.Spawn(1, "w", func(ctx *cpu.Ctx) { ctx.Store(x, 42) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Counters().Get("invalidations") == 0 {
		t.Fatal("write fault did not invalidate readers")
	}
	// Node 2 rereads: must fault again and see 42.
	var got uint64
	before := d.Counters().Get("read-faults")
	c.Spawn(2, "r2again", func(ctx *cpu.Ctx) { got = ctx.Load(x) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("reader saw %d after writer, want 42", got)
	}
	if d.Counters().Get("read-faults") != before+1 {
		t.Fatal("reread did not fault (stale mapping survived invalidation)")
	}
}

func TestWriteUpgradeFromReadCopy(t *testing.T) {
	c, d := setup(2)
	x := c.AllocShared(0, 8)
	c.Nodes[0].Mem.WriteWord(c.SharedOffset(x), 5)
	d.SharePage(x)
	c.Spawn(1, "rw", func(ctx *cpu.Ctx) {
		if v := ctx.Load(x); v != 5 {
			t.Errorf("initial read %d", v)
		}
		ctx.Store(x, 6) // upgrade RO -> RW without a content transfer
		if v := ctx.Load(x); v != 6 {
			t.Errorf("read after write %d", v)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Counters().Get("write-faults") != 1 {
		t.Fatalf("write faults = %d", d.Counters().Get("write-faults"))
	}
}

func TestHomeRefetchesAfterRemoteWrite(t *testing.T) {
	c, d := setup(2)
	x := c.AllocShared(0, 8)
	d.SharePage(x)
	c.Spawn(1, "w", func(ctx *cpu.Ctx) { ctx.Store(x, 9) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	c.Spawn(0, "home-read", func(ctx *cpu.Ctx) { got = ctx.Load(x) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("home read %d after remote write, want 9", got)
	}
}

func TestMigratorySharing(t *testing.T) {
	// The page migrates around all nodes; every increment must be
	// preserved (single-writer semantics).
	c, d := setup(3)
	x := c.AllocShared(0, 8)
	d.SharePage(x)
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for n := 0; n < 3; n++ {
			c.Spawn(n, "inc", func(ctx *cpu.Ctx) {
				v := ctx.Load(x)
				ctx.Store(x, v+1)
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got uint64
	c.Spawn(0, "check", func(ctx *cpu.Ctx) { got = ctx.Load(x) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != rounds*3 {
		t.Fatalf("counter = %d, want %d (lost updates)", got, rounds*3)
	}
}

func TestDSMCostsAreOSBound(t *testing.T) {
	c, d := setup(2)
	x := c.AllocShared(0, 8)
	d.SharePage(x)
	var faultTime sim.Time
	c.Spawn(1, "r", func(ctx *cpu.Ctx) {
		s := ctx.Now()
		ctx.Load(x)
		faultTime = ctx.Now() - s
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// A DSM fault must cost at least several traps + an interrupt —
	// orders of magnitude above a 7.2 µs hardware remote read.
	if faultTime < 100*sim.Microsecond {
		t.Fatalf("DSM read fault took only %v; OS costs missing", faultTime)
	}
}

func TestNonSharedFaultStaysFatal(t *testing.T) {
	c, _ := setup(2)
	c.Spawn(1, "wild", func(ctx *cpu.Ctx) {
		ctx.Load(0x7777_0000) // unmapped, not a DSM page
	})
	if err := c.Run(); err == nil {
		t.Fatal("wild access should abort the program")
	}
}

// TestPageInBoundaryEvents checks that fault-driven page transfers show
// up in the canonical trace as paired BOpPageIn invoke/return events and
// that the history builder keeps them out of the linearizable history.
func TestPageInBoundaryEvents(t *testing.T) {
	c, d := setup(2)
	w := trace.NewWindowedLog(2, 0)
	log := trace.NewEventLog()
	w.AddSink(log)
	c.AttachTrace(w)
	x := c.AllocShared(0, 8)
	c.Nodes[0].Mem.WriteWord(c.SharedOffset(x), 5)
	d.SharePage(x)
	c.Spawn(1, "rw", func(ctx *cpu.Ctx) {
		ctx.Load(x)     // read fault: fetch a read-only copy
		ctx.Store(x, 9) // write fault: upgrade to exclusive
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	w.DrainAll()
	events := log.Events()
	invokes, returns := 0, 0
	for _, e := range events {
		if e.Kind != trace.EvOpInvoke && e.Kind != trace.EvOpReturn {
			continue
		}
		op, _ := trace.SplitBoundaryAux(e.Aux)
		if op != trace.BOpPageIn {
			continue
		}
		if e.Node != 1 {
			t.Fatalf("page-in event on node %d, want 1", e.Node)
		}
		if e.Kind == trace.EvOpInvoke {
			invokes++
		} else {
			returns++
		}
	}
	if invokes != 2 || returns != 2 {
		t.Fatalf("page-in events: %d invokes, %d returns, want 2/2 (read + write fault)", invokes, returns)
	}
	// The page transfers are observability-only: the reconstructed
	// history contains no operation for them.
	h := linearize.FromTrace(events)
	if n := len(h.Ops); n != 0 {
		t.Fatalf("history has %d ops from DSM traffic, want 0 (DSM bypasses the HIB op boundary)", n)
	}
}
