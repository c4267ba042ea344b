package hib

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// CPUWrite performs a store issued by the local CPU to an I/O-space
// physical address: a HIB register write, a shadow-address argument pass,
// a local shared-memory write, or a remote write. It runs in the CPU's
// process and charges the full hardware path the CPU observes.
//
// Remote writes implement the paper's headline behaviour: the processor
// is released as soon as the HIB latches the store; delivery proceeds in
// the background and is tracked by the outstanding-operation counter.
func (h *HIB) CPUWrite(p *sim.Proc, pa addrspace.PAddr, v uint64) {
	h.CPUWriteIssued(p, 0, pa, v)
}

// CPUWriteIssued is CPUWrite for a caller that still owes lead of
// instruction-issue latency: the lead rides into the store's first bus
// reservation (or memory sleep), so the CPU process parks once for
// issue + latch instead of once per leg. Completion times are identical
// to Sleep(lead) followed by CPUWrite.
func (h *HIB) CPUWriteIssued(p *sim.Proc, lead sim.Time, pa addrspace.PAddr, v uint64) {
	switch {
	case pa.IsShadow():
		h.bus.TransactAfter(p, lead, h.timing.TCWriteLatch, 0)
		h.shadowStore(pa, v)
	case pa.IsHIBReg():
		h.bus.TransactAfter(p, lead, h.timing.TCWriteLatch, 0)
		h.regWrite(p, pa.Offset(), v)
	case h.pal.active:
		// Telegraphos I special mode: the store is latched as the
		// pending special operation's address, not performed (§2.2.4).
		h.bus.TransactAfter(p, lead, h.timing.TCWriteLatch, 0)
		h.palLatchAddress(pa)
	case pa.Node() == h.node:
		h.localSharedWrite(p, lead, pa.Offset(), v)
	default:
		h.remoteWrite(p, lead, pa, v)
	}
}

// CPURead performs a load issued by the local CPU to an I/O-space
// physical address. Remote reads block the calling process until the
// reply returns (§2.2.1: "read requests stall the processor until the
// data arrive from the remote node").
func (h *HIB) CPURead(p *sim.Proc, pa addrspace.PAddr) uint64 {
	return h.CPUReadIssued(p, 0, pa)
}

// CPUReadIssued is CPURead with lead of still-owed issue latency folded
// into the load's first bus reservation (see CPUWriteIssued).
func (h *HIB) CPUReadIssued(p *sim.Proc, lead sim.Time, pa addrspace.PAddr) uint64 {
	switch {
	case pa.IsShadow():
		// The shadow space is store-only; a read is a protocol violation.
		if lead > 0 {
			p.Sleep(lead)
		}
		h.Counters.Inc("shadow-read-rejected")
		h.os.RaiseInterrupt(osmodel.IntrProtection, 0)
		return 0
	case pa.IsHIBReg():
		h.bus.TransactAfter(p, lead, h.timing.TCReadSetup, 0)
		v := h.regRead(p, pa.Offset())
		h.bus.Transact(p, h.timing.TCReadReply)
		return v
	case pa.Node() == h.node:
		return h.localSharedRead(p, lead, pa.Offset())
	default:
		return h.remoteRead(p, lead, pa)
	}
}

// localSharedWrite stores into this node's shared region. The cost
// depends on placement (§2.2.1): on the Telegraphos I board the store
// crosses the TurboChannel to the HIB memory; in Telegraphos II it is a
// plain (cacheable) main-memory store that the HIB observes.
func (h *HIB) localSharedWrite(p *sim.Proc, lead sim.Time, offset uint64, v uint64) {
	h.counts[cntLocalSharedWrite]++
	g := addrspace.NewGAddr(h.node, offset)
	seq := h.invokeOp(trace.BOpWrite, g, v)
	if h.placement == params.SharedOnHIB {
		h.bus.TransactAfter(p, lead, h.timing.TCWriteLatch, 0)
	} else {
		p.Sleep(lead + h.timing.LocalMemWrit)
	}
	if h.coherence != nil && h.coherence.LocalSharedWrite(p, offset, v) {
		h.returnOp(trace.BOpWrite, seq, g, 0)
		return
	}
	h.mem.WriteWord(offset, v)
	// Record the apply: a local store's effect is the store itself, but
	// making it explicit in the stream lets the online history builder
	// close every write on (return, effect) uniformly — without this, a
	// local write is indistinguishable from a remote write whose apply
	// is still in flight until the run ends.
	h.Emit(trace.EvWriteApply, uint64(g), v, uint64(h.node))
	h.fanoutMulticast(p, offset, v)
	h.returnOp(trace.BOpWrite, seq, g, 0)
}

// localSharedRead loads from this node's shared region.
func (h *HIB) localSharedRead(p *sim.Proc, lead sim.Time, offset uint64) uint64 {
	h.counts[cntLocalSharedRead]++
	g := addrspace.NewGAddr(h.node, offset)
	seq := h.invokeOp(trace.BOpRead, g, 0)
	if h.placement == params.SharedOnHIB {
		// One programmed-I/O read transaction against the board memory,
		// then the board-memory access itself, in a single park.
		h.bus.TransactAfter(p, lead, h.timing.TCReadSetup, h.timing.MPMRead)
	} else {
		p.Sleep(lead + h.timing.LocalMemRead)
	}
	var v uint64
	if h.coherence != nil {
		if cv, handled := h.coherence.LocalSharedRead(p, offset); handled {
			v = cv
			h.returnOp(trace.BOpRead, seq, g, v)
			return v
		}
	}
	v = h.mem.ReadWord(offset)
	h.returnOp(trace.BOpRead, seq, g, v)
	return v
}

// remoteWrite latches the store and queues a WriteReq; the CPU continues
// as soon as the latch completes (and a write-queue slot exists).
func (h *HIB) remoteWrite(p *sim.Proc, lead sim.Time, pa addrspace.PAddr, v uint64) {
	h.counts[cntRemoteWrite]++
	g, _ := addrspace.GAddrOfPA(h.node, pa)
	// The boundary return marks the latch, not the effect: the history
	// builder pairs this invoke with the write's apply event at the home
	// node (the store is non-blocking, §2.2.1).
	seq := h.invokeOp(trace.BOpWrite, g, v)
	h.countAccess(addrspace.GPageOf(g, h.mem.PageSize()), true)
	h.bus.TransactAfter(p, lead, h.timing.TCWriteLatch, 0)
	h.AddOutstanding(1)
	pkt := h.newPacket()
	pkt.Type = packet.WriteReq
	pkt.Src = h.node
	pkt.Dst = g.Node()
	pkt.Addr = g
	pkt.Val = v
	h.postCPU(p, pkt)
	h.returnOp(trace.BOpWrite, seq, g, 0)
}

// remoteRead issues a ReadReq and blocks until the reply arrives. At most
// Sizing.MaxOutstandingRds reads are in flight ("in the current version of
// Telegraphos there can be no more than one outstanding read operation").
func (h *HIB) remoteRead(p *sim.Proc, lead sim.Time, pa addrspace.PAddr) uint64 {
	h.counts[cntRemoteRead]++
	g, _ := addrspace.GAddrOfPA(h.node, pa)
	seq := h.invokeOp(trace.BOpRead, g, 0)
	h.countAccess(addrspace.GPageOf(g, h.mem.PageSize()), false)
	h.readSlots.Acquire(p)
	// Issue + read-setup transaction + HIB service, in a single park.
	h.bus.TransactAfter(p, lead, h.timing.TCReadSetup, h.timing.HIBService)
	id, fut := h.newRequest()
	req := h.newPacket()
	req.Type = packet.ReadReq
	req.Src = h.node
	req.Dst = g.Node()
	req.Addr = g
	req.ReqID = id
	h.postCPU(p, req)
	v := h.awaitReply(p, fut)
	h.bus.Transact(p, h.timing.TCReadReply)
	h.readSlots.Release()
	h.returnOp(trace.BOpRead, seq, g, v)
	return v
}

// fanoutMulticast forwards a local-page update to every mapped-out remote
// page (§2.2.7 eager updating). The generated writes are tracked by the
// outstanding counter so FENCE covers them.
func (h *HIB) fanoutMulticast(p *sim.Proc, offset uint64, v uint64) {
	pageSize := uint64(h.mem.PageSize())
	dests := h.multicast[addrspace.PageOf(offset, h.mem.PageSize())]
	if len(dests) == 0 {
		return
	}
	inPage := offset % pageSize
	for _, d := range dests {
		h.counts[cntMulticastWrite]++
		h.AddOutstanding(1)
		dst := d.Base(h.mem.PageSize()).Add(inPage)
		pkt := &packet.Packet{
			Type: packet.WriteReq,
			Src:  h.node,
			Dst:  dst.Node(),
			Addr: dst,
			Val:  v,
		}
		if dst.Node() == h.node {
			h.deliverLocal(pkt)
			continue
		}
		h.postCPU(p, pkt)
	}
}
