// Package cpu models the workstation processor: it issues loads and
// stores through the MMU, routes them to local memory or to the HIB
// (I/O space), and implements the user-level instruction sequences that
// launch Telegraphos special operations (§2.2.4).
//
// The model is deliberately not micro-architectural: each instruction
// costs a fixed issue time, local accesses cost a memory access time, and
// everything interesting happens in the translation and I/O paths — which
// is where the paper's claims live.
package cpu

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/hib"
	"telegraphos/internal/mem"
	"telegraphos/internal/mmu"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
)

// CPU is one node's processor.
type CPU struct {
	node   addrspace.NodeID
	eng    *sim.Engine
	MMU    *mmu.MMU
	Mem    *mem.Memory
	OS     *osmodel.OS
	HIB    *hib.HIB
	timing params.Timing

	// CtxID and Key identify the Telegraphos context the runtime
	// allocated for this node's program (set by the cluster builder).
	CtxID int
	Key   uint64

	// Counters is per-CPU telemetry. The per-instruction counters bump
	// through cells resolved on first use (stats.CounterSet.IncLazy).
	Counters               *stats.CounterSet
	loads, stores, atomics *int64
}

// New returns a CPU wired to its node's MMU, memory, OS, and HIB.
func New(eng *sim.Engine, node addrspace.NodeID, m *mmu.MMU, mm *mem.Memory,
	os *osmodel.OS, h *hib.HIB, timing params.Timing) *CPU {
	return &CPU{
		node:     node,
		eng:      eng,
		MMU:      m,
		Mem:      mm,
		OS:       os,
		HIB:      h,
		timing:   timing,
		Counters: stats.NewCounterSet(),
	}
}

// Node reports the CPU's node id.
func (c *CPU) Node() addrspace.NodeID { return c.node }

// Spawn starts prog as a program on this CPU.
func (c *CPU) Spawn(name string, prog func(*Ctx)) *sim.Proc {
	return c.eng.Spawn(name, func(p *sim.Proc) {
		prog(&Ctx{P: p, CPU: c})
	})
}

// Ctx is a running program's view of its CPU; all methods must be called
// from the program's own process.
type Ctx struct {
	// P is the underlying simulation process.
	P *sim.Proc
	// CPU is the processor the program runs on.
	CPU *CPU
}

// Now reports the current simulated time.
func (x *Ctx) Now() sim.Time { return x.P.Now() }

// Compute charges d of pure computation.
func (x *Ctx) Compute(d sim.Time) { x.P.Sleep(d) }

// translate resolves va, invoking the OS on faults; a fault the OS cannot
// resolve aborts the program.
func (x *Ctx) translate(va addrspace.VAddr, access mmu.Access) addrspace.PAddr {
	for {
		pa, fault := x.CPU.MMU.Translate(x.P, va, access)
		if fault == nil {
			return pa
		}
		if !x.CPU.OS.HandleFault(x.P, fault) {
			x.P.Panicf("program killed: %v", fault)
		}
	}
}

// Load performs a load instruction. A load from a remote mapping blocks
// until the data returns (§2.2.1).
//
// The instruction-issue cost rides into the access itself (translation is
// performed first, the CPUOp charge folded into the memory sleep or the
// first bus reservation), so an uncontended access parks the process once
// instead of twice; completion times are unchanged.
func (x *Ctx) Load(va addrspace.VAddr) uint64 {
	x.CPU.Counters.IncLazy(&x.CPU.loads, "loads")
	pa := x.translate(va, mmu.AccessRead)
	if pa.IsIO() {
		return x.CPU.HIB.CPUReadIssued(x.P, x.CPU.timing.CPUOp, pa)
	}
	x.P.Sleep(x.CPU.timing.CPUOp + x.CPU.timing.LocalMemRead)
	return x.CPU.Mem.ReadWord(pa.Offset())
}

// Store performs a store instruction. A store to a remote mapping
// releases the processor as soon as the HIB latches it. Issue cost is
// folded into the access as in Load.
func (x *Ctx) Store(va addrspace.VAddr, v uint64) {
	x.CPU.Counters.IncLazy(&x.CPU.stores, "stores")
	pa := x.translate(va, mmu.AccessWrite)
	if pa.IsIO() {
		x.CPU.HIB.CPUWriteIssued(x.P, x.CPU.timing.CPUOp, pa, v)
		return
	}
	x.P.Sleep(x.CPU.timing.CPUOp + x.CPU.timing.LocalMemWrit)
	x.CPU.Mem.WriteWord(pa.Offset(), v)
}

// TryLoad is Load but returns translation faults instead of invoking the
// OS — used to observe protection behaviour.
func (x *Ctx) TryLoad(va addrspace.VAddr) (uint64, error) {
	pa, fault := x.CPU.MMU.Translate(x.P, va, mmu.AccessRead)
	if fault != nil {
		x.P.Sleep(x.CPU.timing.CPUOp)
		return 0, fault
	}
	if pa.IsIO() {
		return x.CPU.HIB.CPUReadIssued(x.P, x.CPU.timing.CPUOp, pa), nil
	}
	x.P.Sleep(x.CPU.timing.CPUOp + x.CPU.timing.LocalMemRead)
	return x.CPU.Mem.ReadWord(pa.Offset()), nil
}

// TryStore is Store but returns translation faults instead of invoking
// the OS.
func (x *Ctx) TryStore(va addrspace.VAddr, v uint64) error {
	pa, fault := x.CPU.MMU.Translate(x.P, va, mmu.AccessWrite)
	if fault != nil {
		x.P.Sleep(x.CPU.timing.CPUOp)
		return fault
	}
	if pa.IsIO() {
		x.CPU.HIB.CPUWriteIssued(x.P, x.CPU.timing.CPUOp, pa, v)
		return nil
	}
	x.P.Sleep(x.CPU.timing.CPUOp + x.CPU.timing.LocalMemWrit)
	x.CPU.Mem.WriteWord(pa.Offset(), v)
	return nil
}

// Fence blocks until every outstanding remote operation completes
// (§2.3.5 MEMORY_BARRIER).
func (x *Ctx) Fence() {
	x.P.Sleep(x.CPU.timing.CPUOp)
	x.CPU.HIB.Fence(x.P)
}

// ioWrite issues one uncached store to a HIB register.
func (x *Ctx) ioWrite(pa addrspace.PAddr, v uint64) {
	x.CPU.HIB.CPUWriteIssued(x.P, x.CPU.timing.CPUOp, pa, v)
}

// ioRead issues one uncached load from a HIB register.
func (x *Ctx) ioRead(pa addrspace.PAddr) uint64 {
	return x.CPU.HIB.CPUReadIssued(x.P, x.CPU.timing.CPUOp, pa)
}

// shadowStore passes va's physical translation to the HIB context slot:
// one store to the shadow image of va whose data word carries (context,
// slot, key). The TLB performs the protection check (§2.2.4).
func (x *Ctx) shadowStore(va addrspace.VAddr, slot int) {
	pa := x.translate(va.Shadow(), mmu.AccessWrite)
	x.CPU.HIB.CPUWriteIssued(x.P, x.CPU.timing.CPUOp, pa, hib.ShadowArg(x.CPU.CtxID, slot, x.CPU.Key))
}

// atomic runs the user-level launch sequence for a remote atomic
// operation on va: uncached stores of the opcode and operands into the
// Telegraphos context, a shadow store communicating the physical address,
// and a trigger read returning the fetched value.
func (x *Ctx) atomic(op packet.AtomicOp, va addrspace.VAddr, v1, v2 uint64) uint64 {
	x.CPU.Counters.IncLazy(&x.CPU.atomics, "atomics")
	id := x.CPU.CtxID
	x.ioWrite(hib.CtxRegPA(id, hib.CtxRegOpcode), uint64(op))
	x.ioWrite(hib.CtxRegPA(id, hib.CtxRegOperand1), v1)
	if op == packet.CompareAndSwap {
		x.ioWrite(hib.CtxRegPA(id, hib.CtxRegOperand2), v2)
	}
	x.shadowStore(va, 0)
	return x.ioRead(hib.CtxRegPA(id, hib.CtxRegAtomicGo))
}

// FetchAndInc atomically increments the word at va and returns its
// previous value.
func (x *Ctx) FetchAndInc(va addrspace.VAddr) uint64 {
	return x.atomic(packet.FetchAndInc, va, 0, 0)
}

// FetchAndStore atomically stores v at va and returns the previous value.
func (x *Ctx) FetchAndStore(va addrspace.VAddr, v uint64) uint64 {
	return x.atomic(packet.FetchAndStore, va, v, 0)
}

// CompareAndSwap atomically stores v at va if the current value equals
// expected; it returns the previous value.
func (x *Ctx) CompareAndSwap(va addrspace.VAddr, v, expected uint64) uint64 {
	return x.atomic(packet.CompareAndSwap, va, v, expected)
}

// AtomicViaOS performs the same atomic operation through an OS trap — the
// "simplest way to launch an atomic operation" of §2.2.5, used as the
// baseline in the launch-cost experiment. The kernel pays the trap, a
// page-table lookup, and then drives the same register sequence
// uninterrupted.
func (x *Ctx) AtomicViaOS(op packet.AtomicOp, va addrspace.VAddr, v1, v2 uint64) uint64 {
	x.CPU.Counters.Inc("atomics-os")
	x.CPU.OS.Trap(x.P)                     // kernel entry
	x.P.Sleep(x.CPU.timing.TLBMissCost)    // software page-table lookup
	pa := x.translate(va, mmu.AccessWrite) // validity check
	_ = pa
	id := x.CPU.CtxID
	x.ioWrite(hib.CtxRegPA(id, hib.CtxRegOpcode), uint64(op))
	x.ioWrite(hib.CtxRegPA(id, hib.CtxRegOperand1), v1)
	if op == packet.CompareAndSwap {
		x.ioWrite(hib.CtxRegPA(id, hib.CtxRegOperand2), v2)
	}
	x.shadowStore(va, 0)
	v := x.ioRead(hib.CtxRegPA(id, hib.CtxRegAtomicGo))
	x.CPU.OS.Trap(x.P) // kernel exit
	return v
}

// RemoteCopy launches a non-blocking copy of words 8-byte words from
// srcVA to dstVA (§2.2.2). Completion is covered by Fence.
func (x *Ctx) RemoteCopy(dstVA, srcVA addrspace.VAddr, words int) {
	x.CPU.Counters.Inc("copies")
	id := x.CPU.CtxID
	x.ioWrite(hib.CtxRegPA(id, hib.CtxRegOperand1), uint64(words))
	x.shadowStore(srcVA, 0)
	x.shadowStore(dstVA, 1)
	x.ioWrite(hib.CtxRegPA(id, hib.CtxRegCopyGo), 1)
}
