// Package dsm implements the software Virtual Shared Memory baseline the
// paper argues against (§2.1): an IVY-style, page-fault-driven,
// single-writer DSM built entirely from OS mechanisms — page faults,
// traps, kernel copies, and OS-mediated messages. No Telegraphos
// hardware is on its data path.
//
// Protocol (manager = the page's home node, single-writer invalidate):
//
//   - read fault: the faulting node asks the manager for a copy; the
//     manager pulls the current content from the page's owner and
//     replies; the requester maps the page read-only;
//   - write fault: the manager invalidates every copy (each holder
//     unmaps), transfers ownership and content to the writer, which maps
//     the page read-write.
//
// Every step costs traps, interrupts, and software copies — the overhead
// Telegraphos exists to remove. Experiment E11 quantifies the contrast.
package dsm

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/mmu"
	"telegraphos/internal/msg"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
	"telegraphos/internal/trace"
)

// Port is the well-known service port of DSM managers.
const Port = 0xD5A

// Manager request opcodes (first request word).
const (
	opRead  = 1 // [opRead, page]        -> page content
	opWrite = 2 // [opWrite, page, has]  -> page content (empty if has=1)
	opFetch = 3 // [opFetch, page]       -> page content (owner downgrade)
	opInv   = 4 // [opInv, page]         -> []
)

// DSM is the cluster-wide software shared memory runtime.
type DSM struct {
	c    *core.Cluster
	sys  *msg.System
	dirs map[addrspace.PageNum]*dir
	node []*nodeState

	// counters holds per-node protocol telemetry; each node's handlers
	// touch only their own set, so sharded clusters stay race-free.
	counters []*stats.CounterSet
}

// Counters merges every node's protocol counters (telemetry; call when
// the simulation is quiescent).
func (d *DSM) Counters() *stats.CounterSet {
	total := stats.NewCounterSet()
	for _, cs := range d.counters {
		for _, name := range cs.Names() {
			total.Add(name, cs.Get(name))
		}
	}
	return total
}

// dir is the manager's directory entry for one page.
type dir struct {
	mu      *sim.Mutex
	owner   addrspace.NodeID
	copyset []addrspace.NodeID // readers with a valid (read-only) copy
}

// nodeState is one node's view of its DSM pages.
type nodeState struct {
	// mapped[pn] records the local mapping mode: 0 none, 1 RO, 2 RW.
	mapped map[addrspace.PageNum]int
	// pageSeq numbers this node's BOpPageIn boundary events.
	pageSeq uint64
}

// New installs the DSM runtime: a fault handler on every node and a
// manager service on every node (for the pages it homes).
func New(c *core.Cluster, sys *msg.System) *DSM {
	d := &DSM{
		c:    c,
		sys:  sys,
		dirs: make(map[addrspace.PageNum]*dir),
	}
	for i, n := range c.Nodes {
		d.node = append(d.node, &nodeState{mapped: make(map[addrspace.PageNum]int)})
		d.counters = append(d.counters, stats.NewCounterSet())
		i := i
		n.OS.SetFaultHandler(func(p *sim.Proc, f *mmu.Fault) bool {
			return d.handleFault(p, i, f)
		})
		sys.Serve(n.ID, Port, func(p *sim.Proc, src addrspace.NodeID, req []uint64) []uint64 {
			return d.serve(p, addrspace.NodeID(i), src, req)
		})
	}
	return d
}

// SharePage places the shared page containing va under DSM management:
// the home node holds the initial read-write copy; every other node's
// mapping is removed so first touch faults into the protocol.
func (d *DSM) SharePage(va addrspace.VAddr) {
	ps := d.c.PageSize()
	off := d.c.SharedOffset(va) / uint64(ps) * uint64(ps)
	pn := addrspace.PageOf(off, ps)
	home := d.c.HomeOf(off)
	// The directory lock is only taken by the manager (home) node's
	// handlers, so it lives on the home node's shard engine.
	d.dirs[pn] = &dir{mu: sim.NewMutex(d.c.EngineOf(int(home))), owner: home}
	for i := range d.c.Nodes {
		if addrspace.NodeID(i) == home {
			d.mapPage(i, pn, 2)
		} else {
			d.unmapPage(i, pn)
		}
	}
}

// vaOf returns the shared virtual address of page pn's base.
func (d *DSM) vaOf(pn addrspace.PageNum) addrspace.VAddr {
	return core.SharedVA(addrspace.PageBase(pn, d.c.PageSize()))
}

// mapPage installs a *plain local* mapping (DSM pages never touch the
// HIB: this is the pure software system). mode is 1 (RO) or 2 (RW).
func (d *DSM) mapPage(i int, pn addrspace.PageNum, mode int) {
	va := d.vaOf(pn)
	perm := mmu.PermRead
	if mode == 2 {
		perm = mmu.PermRW
	}
	d.c.Nodes[i].MMU.AS.Map(va, addrspace.LocalPA(addrspace.PageBase(pn, d.c.PageSize())), perm)
	d.c.Nodes[i].MMU.InvalidatePage(va)
	d.node[i].mapped[pn] = mode
}

func (d *DSM) unmapPage(i int, pn addrspace.PageNum) {
	va := d.vaOf(pn)
	d.c.Nodes[i].MMU.AS.Unmap(va)
	d.c.Nodes[i].MMU.InvalidatePage(va)
	d.node[i].mapped[pn] = 0
}

// handleFault services a page fault on node i: it runs in the faulting
// process (kernel mode); the OS already charged trap + fault service.
func (d *DSM) handleFault(p *sim.Proc, i int, f *mmu.Fault) bool {
	ps := d.c.PageSize()
	va := f.VA.Base()
	if va < core.SharedVABase || uint64(va-core.SharedVABase) >= uint64(d.c.Cfg.Sizing.MemBytes)/2 {
		return false // not a DSM address: fatal
	}
	off := uint64(va - core.SharedVABase)
	pn := addrspace.PageOf(off, ps)
	if _, managed := d.dirs[pn]; !managed {
		return false
	}
	home := d.c.HomeOf(off)
	st := d.node[i].mapped[pn]
	gpage := uint64(addrspace.NewGAddr(home, addrspace.PageBase(pn, ps)))
	switch {
	case f.Access == mmu.AccessRead && st == 0:
		d.counters[i].Inc("read-faults")
		seq := d.pageInInvoke(i, gpage, uint64(mmu.AccessRead))
		content := d.sys.Call(p, addrspace.NodeID(i), home, Port, []uint64{opRead, uint64(pn)})
		d.installPage(p, i, pn, content, 1)
		d.pageInReturn(i, gpage, seq)
	case f.Access == mmu.AccessWrite:
		d.counters[i].Inc("write-faults")
		has := uint64(0)
		if st == 1 {
			has = 1
		}
		seq := d.pageInInvoke(i, gpage, uint64(mmu.AccessWrite))
		content := d.sys.Call(p, addrspace.NodeID(i), home, Port, []uint64{opWrite, uint64(pn), has})
		if has == 1 {
			d.mapPage(i, pn, 2)
		} else {
			d.installPage(p, i, pn, content, 2)
		}
		d.pageInReturn(i, gpage, seq)
	default:
		return false
	}
	return true
}

// pageInInvoke records the start of a fault-driven page transfer as a
// BOpPageIn boundary event in the node's canonical trace (the HIB's
// recorder — the board is not on the DSM data path, but its log is the
// node's event stream). The history builder treats page-ins as
// observability-only; they never enter the linearizability search.
func (d *DSM) pageInInvoke(i int, gpage, access uint64) uint64 {
	ns := d.node[i]
	ns.pageSeq++
	seq := ns.pageSeq
	d.c.Nodes[i].HIB.Emit(trace.EvOpInvoke, gpage, access, trace.BoundaryAux(trace.BOpPageIn, seq))
	return seq
}

// pageInReturn records the completion of a fault-driven page transfer.
func (d *DSM) pageInReturn(i int, gpage, seq uint64) {
	d.c.Nodes[i].HIB.Emit(trace.EvOpReturn, gpage, 0, trace.BoundaryAux(trace.BOpPageIn, seq))
}

// installPage writes fetched content into the local frame and maps it.
func (d *DSM) installPage(p *sim.Proc, i int, pn addrspace.PageNum, content []uint64, mode int) {
	node := d.c.Nodes[i]
	if len(content) != node.Mem.WordsPerPage() {
		p.Panicf("dsm: short page content (%d words)", len(content))
	}
	node.OS.CopyWords(p, len(content))
	node.Mem.WritePage(pn, content)
	d.mapPage(i, pn, mode)
}

// serve handles a manager/holder request arriving at node me.
func (d *DSM) serve(p *sim.Proc, me, src addrspace.NodeID, req []uint64) []uint64 {
	if len(req) < 2 {
		return nil
	}
	op, pn := req[0], addrspace.PageNum(req[1])
	switch op {
	case opRead:
		return d.manageRead(p, me, src, pn)
	case opWrite:
		return d.manageWrite(p, me, src, pn, len(req) > 2 && req[2] == 1)
	case opFetch:
		// Downgrade to read-only and return our (current) content.
		d.counters[me].Inc("fetches")
		d.mapPage(int(me), pn, 1)
		content := d.c.Nodes[me].Mem.ReadPage(pn)
		d.c.Nodes[me].OS.CopyWords(p, len(content))
		return content
	case opInv:
		d.counters[me].Inc("invalidations")
		d.unmapPage(int(me), pn)
		return nil
	default:
		return nil
	}
}

// manageRead runs at the manager: give src a read-only copy.
func (d *DSM) manageRead(p *sim.Proc, me, src addrspace.NodeID, pn addrspace.PageNum) []uint64 {
	dd := d.dirs[pn]
	dd.mu.Lock(p)
	defer dd.mu.Unlock()
	var content []uint64
	if dd.owner == me {
		// Serve from our own copy — and downgrade our mapping to
		// read-only so our next write faults and invalidates the reader.
		d.mapPage(int(me), pn, 1)
		content = d.c.Nodes[me].Mem.ReadPage(pn)
		d.c.Nodes[me].OS.CopyWords(p, len(content))
	} else {
		content = d.sys.Call(p, me, dd.owner, Port, []uint64{opFetch, uint64(pn)})
	}
	if !contains(dd.copyset, dd.owner) {
		dd.copyset = append(dd.copyset, dd.owner)
	}
	if !contains(dd.copyset, src) {
		dd.copyset = append(dd.copyset, src)
	}
	return content
}

// manageWrite runs at the manager: make src the exclusive owner.
func (d *DSM) manageWrite(p *sim.Proc, me, src addrspace.NodeID, pn addrspace.PageNum, srcHasCopy bool) []uint64 {
	dd := d.dirs[pn]
	dd.mu.Lock(p)
	defer dd.mu.Unlock()
	var content []uint64
	if !srcHasCopy && dd.owner != src {
		if dd.owner == me {
			content = d.c.Nodes[me].Mem.ReadPage(pn)
			d.c.Nodes[me].OS.CopyWords(p, len(content))
		} else {
			content = d.sys.Call(p, me, dd.owner, Port, []uint64{opFetch, uint64(pn)})
		}
	}
	// Invalidate every other copy (including the old owner's).
	seen := map[addrspace.NodeID]bool{src: true}
	targets := append(append([]addrspace.NodeID(nil), dd.copyset...), dd.owner)
	for _, h := range targets {
		if seen[h] {
			continue
		}
		seen[h] = true
		if h == me {
			d.unmapPage(int(me), pn)
			d.counters[me].Inc("invalidations")
			continue
		}
		d.sys.Call(p, me, h, Port, []uint64{opInv, uint64(pn)})
	}
	dd.owner = src
	dd.copyset = nil
	return content
}

func contains(s []addrspace.NodeID, n addrspace.NodeID) bool {
	for _, v := range s {
		if v == n {
			return true
		}
	}
	return false
}
