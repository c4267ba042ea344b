// Package tsync provides the synchronization primitives the paper builds
// from Telegraphos remote atomic operations: spinlocks and barriers, with
// the MEMORY_BARRIER embedded in every release (§2.3.5: "The
// MEMORY_BARRIER operation is embedded inside all implementations of
// synchronization operations, in order to make sure that all outstanding
// memory accesses complete before the synchronization operation").
package tsync

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/sim"
)

// SpinBackoff is the delay between failed acquisition attempts.
const SpinBackoff = 2 * sim.Microsecond

// Lock is a spinlock on a shared word (0 = free, 1 = held), acquired
// with remote compare-and-swap.
type Lock struct {
	// VA is the lock word's shared virtual address.
	VA addrspace.VAddr
}

// NewLock allocates a lock word homed on node home.
func NewLock(c *core.Cluster, home addrspace.NodeID) Lock {
	return Lock{VA: c.AllocShared(home, 8)}
}

// Acquire spins with compare-and-swap until the lock is taken, then
// fences so the critical section observes all prior updates.
func (l Lock) Acquire(ctx *cpu.Ctx) {
	for ctx.CompareAndSwap(l.VA, 1, 0) != 0 {
		ctx.Compute(SpinBackoff)
	}
	ctx.Fence()
}

// Release fences (so every write in the critical section is complete and
// globally visible) and then frees the lock — the paper's UNLOCK.
func (l Lock) Release(ctx *cpu.Ctx) {
	ctx.Fence()
	ctx.Store(l.VA, 0)
}

// Barrier is a centralized counter barrier with a monotonically
// increasing round number. The counter and round words live on the same
// shared page, so the network's in-order delivery keeps the counter reset
// ordered before the round announcement.
type Barrier struct {
	countVA addrspace.VAddr
	roundVA addrspace.VAddr
	n       int
}

// NewBarrier allocates a barrier for n participants, homed on node home.
func NewBarrier(c *core.Cluster, home addrspace.NodeID, n int) *Barrier {
	base := c.AllocShared(home, 16)
	return &Barrier{countVA: base, roundVA: base + 8, n: n}
}

// Waiter is one participant's handle; each participant must use its own.
type Waiter struct {
	b     *Barrier
	round uint64
}

// Participant returns a fresh participant handle.
func (b *Barrier) Participant() *Waiter { return &Waiter{b: b} }

// Wait blocks until all n participants arrive. The embedded fence
// guarantees every participant's prior writes are globally visible before
// anyone proceeds.
func (w *Waiter) Wait(ctx *cpu.Ctx) {
	ctx.Fence()
	w.round++
	arrived := ctx.FetchAndInc(w.b.countVA)
	if int(arrived) == w.b.n-1 {
		// Last arrival: reset the counter, then publish the round. Both
		// stores target the same page, so they apply in order at home.
		ctx.Store(w.b.countVA, 0)
		ctx.Store(w.b.roundVA, w.round)
		ctx.Fence()
		return
	}
	for ctx.Load(w.b.roundVA) < w.round {
		ctx.Compute(SpinBackoff)
	}
}
