// Package osmodel models the operating-system software paths whose cost
// the Telegraphos hardware exists to avoid: traps, interrupts, page-fault
// service, context switches, and software memory copies.
//
// The paper's motivation (§1, §2.1) is exactly this cost asymmetry —
// "most traditional environments need the intervention of the operating
// system to make even the simplest exchange of information" — so the
// baselines (Virtual Shared Memory, OS-mediated message passing,
// trap-launched atomics) are built on this package while the Telegraphos
// paths bypass it.
package osmodel

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/mmu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
)

// Interrupt identifies an interrupt source.
type Interrupt uint8

// Interrupt sources.
const (
	// IntrPageCounter fires when a HIB page-access counter reaches zero
	// (§2.2.6 alarm-based replication).
	IntrPageCounter Interrupt = iota
	// IntrMessage signals arrival of an OS-mediated message.
	IntrMessage
	// IntrProtection signals a rejected HIB operation (bad context key).
	IntrProtection
	// IntrCounterStall signals a full pending-write counter cache.
	IntrCounterStall
)

// String names the interrupt source.
func (i Interrupt) String() string {
	switch i {
	case IntrPageCounter:
		return "page-counter"
	case IntrMessage:
		return "message"
	case IntrProtection:
		return "protection"
	case IntrCounterStall:
		return "counter-stall"
	default:
		return fmt.Sprintf("intr(%d)", uint8(i))
	}
}

// FaultHandler services a page fault in the faulting process's context;
// it returns true if the access should be retried, false to kill the
// program (protection violation).
type FaultHandler func(p *sim.Proc, f *mmu.Fault) bool

// IntrHandler services an interrupt; it runs in a fresh kernel process.
type IntrHandler func(p *sim.Proc, arg uint64)

// intrHandler is an installed handler with the name of the kernel
// processes it runs in, formatted once at installation.
type intrHandler struct {
	fn   IntrHandler
	name string
}

// OS is one node's operating system model.
type OS struct {
	eng    *sim.Engine
	node   addrspace.NodeID
	timing params.Timing

	faultHandler FaultHandler
	intrHandlers map[Interrupt]intrHandler
	Counters     *stats.CounterSet
}

// New returns an OS for node with the given software costs.
func New(eng *sim.Engine, node addrspace.NodeID, timing params.Timing) *OS {
	return &OS{
		eng:          eng,
		node:         node,
		timing:       timing,
		intrHandlers: make(map[Interrupt]intrHandler),
		Counters:     stats.NewCounterSet(),
	}
}

// Node reports which node this OS runs on.
func (o *OS) Node() addrspace.NodeID { return o.node }

// Timing exposes the software cost constants.
func (o *OS) Timing() params.Timing { return o.timing }

// Trap charges p one user/kernel crossing.
func (o *OS) Trap(p *sim.Proc) {
	o.Counters.Inc("traps")
	p.Sleep(o.timing.Trap)
}

// CopyWords charges p a software copy of n words.
func (o *OS) CopyWords(p *sim.Proc, n int) {
	p.Sleep(sim.Time(n) * o.timing.MemCopyPerWord)
}

// SetFaultHandler installs the page-fault handler (e.g. the DSM runtime).
func (o *OS) SetFaultHandler(fn FaultHandler) { o.faultHandler = fn }

// HandleFault services fault f for process p: it charges the trap and
// fault-service cost, then runs the installed handler. It reports whether
// the access should be retried. With no handler installed every fault is
// fatal (returns false).
func (o *OS) HandleFault(p *sim.Proc, f *mmu.Fault) bool {
	o.Counters.Inc("page-faults")
	p.Sleep(o.timing.Trap + o.timing.FaultService)
	if o.faultHandler == nil {
		return false
	}
	return o.faultHandler(p, f)
}

// SetInterruptHandler installs the handler for an interrupt source.
func (o *OS) SetInterruptHandler(kind Interrupt, fn IntrHandler) {
	o.intrHandlers[kind] = intrHandler{fn: fn, name: fmt.Sprintf("%v.intr.%v", o.node, kind)}
}

// RaiseInterrupt delivers an interrupt: a fresh kernel process pays the
// delivery cost and runs the handler. Safe to call from event context
// (e.g. from HIB hardware). Interrupts with no handler are counted and
// dropped.
func (o *OS) RaiseInterrupt(kind Interrupt, arg uint64) {
	o.Counters.Inc("intr-" + kind.String())
	h := o.intrHandlers[kind]
	if h.fn == nil {
		o.Counters.Inc("intr-unhandled")
		return
	}
	o.eng.SpawnDaemon(h.name, func(p *sim.Proc) {
		p.Sleep(o.timing.Interrupt)
		h.fn(p, arg)
	})
}
