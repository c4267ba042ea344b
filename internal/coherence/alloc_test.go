package coherence

import (
	"testing"

	"telegraphos/internal/cpu"
)

// reflectionAllocs is the allocation count the update protocol adds to
// one warmed store to a replicated page by a replica that is not the
// owner: none. The UpdateFwd, the owner's ReflectedWrites and the
// replicas' WriteAcks come from the boards' packet pools, and the
// owner's serialization and each replica's counter and memory stages
// run on prebound handlers. Lower it when a change lowers it; raising it
// needs a reason.
const reflectionAllocs = 0

// fenceAllocs is what the writer's own FENCE costs per store: none, as
// the board reuses one completion and its waiter array for every fence.
const fenceAllocs = 0

// TestReflectionAllocs pins the allocations of a warmed replica-store
// round trip in every counter mode: the writer's UpdateFwd reaches the
// owner, the owner reflects it to both replicas, and each replica
// acknowledges with a WriteAck. The writer fences after each store, so
// each measured store covers a full round trip.
func TestReflectionAllocs(t *testing.T) {
	for _, mode := range []CounterMode{CountersOff, CountersCached, CountersInfinite} {
		c := cluster(3)
		u := NewUpdate(c, mode)
		x := c.AllocShared(0, 8)
		u.SharePage(x, 0, []int{0, 1, 2})
		off := c.SharedOffset(x)
		var avg float64
		v := uint64(0)
		c.Spawn(1, "writer", func(ctx *cpu.Ctx) {
			store := func() {
				v++
				ctx.Store(x, v)
				ctx.Fence()
			}
			for i := 0; i < 8; i++ { // warm the pools, queues and counters
				store()
			}
			avg = testing.AllocsPerRun(100, store)
		})
		runToQuiescence(t, c)
		if want := float64(reflectionAllocs + fenceAllocs); avg != want {
			t.Errorf("%v counters: warmed replica store %.2f allocs, want %v", mode, avg, want)
		}
		for n := 0; n < 3; n++ {
			if got := c.Nodes[n].Mem.ReadWord(off); got != v {
				t.Errorf("%v counters: node %d holds %d, want %d", mode, n, got, v)
			}
		}
		if got := u.Mgr(1).Counters.Get("copy-write"); got != int64(v) {
			t.Errorf("%v counters: %d copy writes counted, want %d", mode, got, v)
		}
	}
}
