package tsync

import (
	"testing"

	"telegraphos/internal/collective"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
)

func cluster(n int) *core.Cluster {
	cfg := params.Default(n)
	cfg.Sizing.MemBytes = 1 << 20
	return core.New(cfg)
}

func TestLockMutualExclusion(t *testing.T) {
	c := cluster(3)
	l := NewLock(c, 0)
	counterVA := c.AllocShared(1, 8) // unprotected shared counter
	inside, maxInside := 0, 0
	for n := 0; n < 3; n++ {
		c.Spawn(n, "worker", func(ctx *cpu.Ctx) {
			for i := 0; i < 4; i++ {
				l.Acquire(ctx)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				v := ctx.Load(counterVA)
				ctx.Compute(1000)
				ctx.Store(counterVA, v+1)
				inside--
				l.Release(ctx)
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("lock admitted %d holders simultaneously", maxInside)
	}
	var final uint64
	c.Spawn(1, "check", func(ctx *cpu.Ctx) { final = ctx.Load(counterVA) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if final != 12 {
		t.Fatalf("counter = %d, want 12 (lost update without exclusion)", final)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	const n = 4
	c := cluster(n)
	b := NewBarrier(c, 0, n)
	var phase [n]int
	for i := 0; i < n; i++ {
		i := i
		w := b.Participant()
		c.Spawn(i, "p", func(ctx *cpu.Ctx) {
			for round := 0; round < 3; round++ {
				// Stagger arrival: the slowest node gates everyone.
				ctx.Compute(cpuTime(i, round))
				phase[i] = round + 1
				w.Wait(ctx)
				// After the barrier, every node must be in this round.
				for j := 0; j < n; j++ {
					if phase[j] < round+1 {
						t.Errorf("round %d: node %d proceeded while node %d at phase %d", round, i, j, phase[j])
					}
				}
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func cpuTime(i, round int) sim.Time {
	return sim.Time((i*7+round*13)%5+1) * 50 * sim.Microsecond
}

func TestBarrierPublishesWrites(t *testing.T) {
	// The fence embedded in the barrier must make pre-barrier writes
	// visible after it (the §2.3.5 producer/consumer idiom).
	const n = 2
	c := cluster(n)
	b := NewBarrier(c, 0, n)
	data := c.AllocShared(0, 8)
	var got uint64
	w0, w1 := b.Participant(), b.Participant()
	c.Spawn(0, "producer", func(ctx *cpu.Ctx) {
		ctx.Store(data, 31337)
		w0.Wait(ctx)
	})
	c.Spawn(1, "consumer", func(ctx *cpu.Ctx) {
		w1.Wait(ctx)
		got = ctx.Load(data)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 31337 {
		t.Fatalf("consumer read %d after barrier, want 31337", got)
	}
}

// TestFabricBarrier runs the in-fabric barrier (internal/collective),
// a drop-in for Barrier with the same Participant/Wait usage and
// embedded fence, through the host-side barrier's rendezvous and
// publish scenarios.
func TestFabricBarrier(t *testing.T) {
	const n = 4
	c := cluster(n)
	b := collective.New(c).NewBarrier(0, 1, 2, 3)
	if b.N() != n {
		t.Fatalf("fabric barrier N = %d, want %d", b.N(), n)
	}
	data := c.AllocShared(0, 8)
	var phase [n]int
	var got uint64
	for i := 0; i < n; i++ {
		i := i
		w := b.Participant()
		c.Spawn(i, "p", func(ctx *cpu.Ctx) {
			for round := 0; round < 3; round++ {
				ctx.Compute(cpuTime(i, round))
				if i == 0 && round == 0 {
					ctx.Store(data, 777) // published by the embedded fence
				}
				phase[i] = round + 1
				w.Wait(ctx)
				if i == n-1 && round == 0 {
					got = ctx.Load(data)
				}
				for j := 0; j < n; j++ {
					if phase[j] < round+1 {
						t.Errorf("round %d: node %d proceeded while node %d at phase %d", round, i, j, phase[j])
					}
				}
				w.Wait(ctx) // hold until the checks above ran on every node
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Fatalf("read %d after fabric barrier, want 777", got)
	}
}
