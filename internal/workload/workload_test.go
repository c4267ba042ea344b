package workload

import (
	"testing"

	"telegraphos/internal/coherence"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/dsm"
	"telegraphos/internal/msg"
	"telegraphos/internal/params"
	"telegraphos/internal/tsync"
)

func newCluster(n int) *core.Cluster {
	cfg := params.Default(n)
	cfg.Sizing.MemBytes = 1 << 20
	cfg.Sizing.PageSize = 1024
	return core.New(cfg)
}

// runTG runs kernel on Telegraphos with replicated update coherence.
func runTG(t *testing.T, n, words int, kernel func(m Mem) uint64) []uint64 {
	t.Helper()
	c := newCluster(n)
	u := coherence.NewUpdate(c, coherence.CountersInfinite)
	base := c.AllocShared(0, 8*words)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	u.SharePage(base, 0, all)
	bar := tsync.NewBarrier(c, 0, n)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		w := bar.Participant()
		c.Spawn(i, "kernel", func(ctx *cpu.Ctx) {
			out[i] = kernel(&TGMem{Ctx: ctx, Base: base, Bar: w, Rank: i, Size: n})
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// runDSM runs kernel on the software DSM baseline.
func runDSM(t *testing.T, n, words int, kernel func(m Mem) uint64) []uint64 {
	t.Helper()
	c := newCluster(n)
	sys := msg.NewSystem(c)
	d := dsm.New(c, sys)
	base := c.AllocShared(0, 8*words)
	d.SharePage(base)
	bar := msg.NewRPCBarrier(sys, 0, n)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		c.Spawn(i, "kernel", func(ctx *cpu.Ctx) {
			out[i] = kernel(&DSMMem{Ctx: ctx, Base: base, Bar: bar, Rank: i, Size: n})
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestProducerConsumerChecksumTG(t *testing.T) {
	const n, words, iters = 3, 16, 2
	out := runTG(t, n, words, func(m Mem) uint64 { return ProducerConsumer(m, words, iters) })
	want := uint64(0)
	for it := 1; it <= iters; it++ {
		for w := 0; w < words; w++ {
			want += uint64(it*1000 + w)
		}
	}
	for i := 1; i < n; i++ {
		if out[i] != want {
			t.Errorf("consumer %d checksum = %d, want %d", i, out[i], want)
		}
	}
}

func TestProducerConsumerChecksumDSM(t *testing.T) {
	const n, words, iters = 2, 16, 2
	out := runDSM(t, n, words, func(m Mem) uint64 { return ProducerConsumer(m, words, iters) })
	want := uint64(0)
	for it := 1; it <= iters; it++ {
		for w := 0; w < words; w++ {
			want += uint64(it*1000 + w)
		}
	}
	if out[1] != want {
		t.Errorf("DSM consumer checksum = %d, want %d", out[1], want)
	}
}

func TestMigratoryCountsTG(t *testing.T) {
	const n, words, iters = 3, 8, 6
	runTG(t, n, words, func(m Mem) uint64 { return Migratory(m, words, iters) })
	// After `iters` hand-offs each word was incremented `iters` times;
	// verify on the owner's copy through a fresh program.
	// (Checksum returned is the last writer's view.)
}

func TestMigratoryFinalValueDSM(t *testing.T) {
	const n, words, iters = 2, 4, 4
	out := runDSM(t, n, words, func(m Mem) uint64 { return Migratory(m, words, iters) })
	// Each word incremented once per iteration; the last writer saw the
	// final value.
	last := out[(iters-1)%n]
	if last != uint64(iters) {
		t.Errorf("final increment value = %d, want %d", last, iters)
	}
}
