// Package workload provides the parallel kernels used by the paper-shape
// experiments, written against an abstract shared-memory interface so the
// same kernel runs unchanged over Telegraphos hardware shared memory
// (with or without update coherence) and over the software DSM baseline.
package workload

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/cpu"
	"telegraphos/internal/msg"
	"telegraphos/internal/sim"
	"telegraphos/internal/tsync"
)

// Mem is the substrate a kernel runs on. Word indices address a shared
// array; Barrier synchronizes all participants.
type Mem interface {
	// Load reads shared word i.
	Load(i int) uint64
	// Store writes shared word i.
	Store(i int, v uint64)
	// Barrier waits for every participant (with release semantics: all
	// prior stores are globally visible afterwards).
	Barrier()
	// Node is this participant's rank; N is the participant count.
	Node() int
	N() int
	// Compute charges pure computation time.
	Compute(d sim.Time)
}

// TGMem runs kernels on Telegraphos shared memory: loads/stores are
// hardware remote (or replicated) accesses, the barrier is built on
// remote atomics (package tsync).
type TGMem struct {
	Ctx  *cpu.Ctx
	Base addrspace.VAddr
	Bar  *tsync.Waiter
	Rank int
	Size int
}

var _ Mem = (*TGMem)(nil)

// Load implements Mem.
func (m *TGMem) Load(i int) uint64 { return m.Ctx.Load(m.Base + addrspace.VAddr(8*i)) }

// Store implements Mem.
func (m *TGMem) Store(i int, v uint64) { m.Ctx.Store(m.Base+addrspace.VAddr(8*i), v) }

// Barrier implements Mem.
func (m *TGMem) Barrier() { m.Bar.Wait(m.Ctx) }

// Node implements Mem.
func (m *TGMem) Node() int { return m.Rank }

// N implements Mem.
func (m *TGMem) N() int { return m.Size }

// Compute implements Mem.
func (m *TGMem) Compute(d sim.Time) { m.Ctx.Compute(d) }

// DSMMem runs kernels on the software DSM: loads/stores are plain local
// accesses that page-fault into the protocol; the barrier is OS-mediated
// RPC (software systems have no remote atomics).
type DSMMem struct {
	Ctx  *cpu.Ctx
	Base addrspace.VAddr
	Bar  *msg.RPCBarrier
	Rank int
	Size int
}

var _ Mem = (*DSMMem)(nil)

// Load implements Mem.
func (m *DSMMem) Load(i int) uint64 { return m.Ctx.Load(m.Base + addrspace.VAddr(8*i)) }

// Store implements Mem.
func (m *DSMMem) Store(i int, v uint64) { m.Ctx.Store(m.Base+addrspace.VAddr(8*i), v) }

// Barrier implements Mem.
func (m *DSMMem) Barrier() { m.Bar.Wait(m.Ctx.P, m.Ctx.CPU.Node()) }

// Node implements Mem.
func (m *DSMMem) Node() int { return m.Rank }

// N implements Mem.
func (m *DSMMem) N() int { return m.Size }

// Compute implements Mem.
func (m *DSMMem) Compute(d sim.Time) { m.Ctx.Compute(d) }

// ComputeGrain is the per-element computation the kernels model between
// memory operations.
const ComputeGrain = 200 * sim.Nanosecond

// ProducerConsumer is the §2.2.7 communication style: in each iteration
// node 0 produces a block of words, a barrier publishes it, and every
// other node consumes (reads) the whole block. Returns a simple checksum
// so the substrate's correctness is observable.
func ProducerConsumer(m Mem, words, iters int) uint64 {
	var sum uint64
	for it := 1; it <= iters; it++ {
		if m.Node() == 0 {
			for w := 0; w < words; w++ {
				m.Compute(ComputeGrain)
				m.Store(w, uint64(it*1000+w))
			}
		}
		m.Barrier()
		if m.Node() != 0 {
			for w := 0; w < words; w++ {
				sum += m.Load(w)
				m.Compute(ComputeGrain)
			}
		}
		m.Barrier()
	}
	return sum
}

// Migratory models migratory sharing: the whole block is read-modified-
// written by each node in turn, round-robin. Update-based coherence
// wastes bandwidth here (every write is pushed to nodes that will not
// read it before it is overwritten); invalidate transfers each page once
// per hand-off.
func Migratory(m Mem, words, iters int) uint64 {
	var last uint64
	for it := 0; it < iters; it++ {
		if it%m.N() == m.Node() {
			for w := 0; w < words; w++ {
				v := m.Load(w)
				m.Compute(ComputeGrain)
				m.Store(w, v+1)
				last = v + 1
			}
		}
		m.Barrier()
	}
	return last
}
