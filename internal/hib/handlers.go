package hib

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// MsgSink receives bulk MsgData packets (set by the message-passing
// layer). It runs in the HIB receiver process.
type MsgSink func(p *sim.Proc, pkt *packet.Packet)

// SetMsgSink installs the MsgData delivery callback.
func (h *HIB) SetMsgSink(fn MsgSink) { h.msgSink = fn }

// Precomputed telemetry labels, indexed by packet type: the receive and
// transmit paths run per packet, and building "rx-"+Type.String() there
// was one of the simulator's hottest allocation sites.
var rxLabels, txLabels, unhandledLabels [packet.NumTypes]string

func init() {
	for t := 0; t < packet.NumTypes; t++ {
		name := packet.Type(t).String()
		rxLabels[t] = "rx-" + name
		txLabels[t] = "tx-" + name
		unhandledLabels[t] = "unhandled-" + name
	}
}

func rxLabel(t packet.Type) string {
	if int(t) < len(rxLabels) {
		return rxLabels[t]
	}
	return "rx-" + t.String()
}

func txLabel(t packet.Type) string {
	if int(t) < len(txLabels) {
		return txLabels[t]
	}
	return "tx-" + t.String()
}

// countRx/countTx bump the per-type packet counters through their
// pre-resolved cells (see HIB.rxCells), falling back to the map for
// out-of-range types.
func (h *HIB) countRx(t packet.Type) {
	if int(t) < len(h.rxCells) {
		*h.rxCells[t]++
		return
	}
	h.Counters.Inc(rxLabel(t))
}

func (h *HIB) countTx(t packet.Type) {
	if int(t) < len(h.txCells) {
		*h.txCells[t]++
		return
	}
	h.Counters.Inc(txLabel(t))
}

func unhandledLabel(t packet.Type) string {
	if int(t) < len(unhandledLabels) {
		return unhandledLabels[t]
	}
	return "unhandled-" + t.String()
}

// deliverLocal routes a packet addressed to this node without touching
// the network (the fabric has no self-routes), modeling the board's
// internal loopback path: HIBService, then the normal handler. Loopback
// servicing runs concurrently with the receive pumps, as the transient
// loopback process always did.
func (h *HIB) deliverLocal(pkt *packet.Packet) {
	//tgvet:allow eventdrop(loopback service delay always fires; no cancel path exists)
	h.eng.Schedule(h.timing.HIBService, func() {
		if h.serviceFast(pkt, nil) {
			return
		}
		h.eng.SpawnDaemon(h.loopName, func(p *sim.Proc) {
			if pkt.Class() == packet.VCRequest {
				h.handleRequest(p, pkt)
			} else {
				h.handleReply(p, pkt)
			}
		})
	})
}

// serviceFast services pkt with chained events — no process, no parks —
// and reports whether it could. done (may be nil) runs when servicing
// completes, releasing the caller's service pipeline. Packets that need
// blocking process context — anything a coherence protocol might
// intercept, multi-burst copies, message-sink deliveries — are declined
// and fall back to the original blocking handlers in a transient process.
//
// Each case reproduces the exact delay structure of the blocking
// handler: the same memory-timing sleeps become same-length event
// delays, so the fast path is timing-identical, not just
// result-identical.
func (h *HIB) serviceFast(pkt *packet.Packet, done func()) bool {
	if h.coherence != nil {
		return false
	}
	switch pkt.Type {
	case packet.WriteReq:
		h.countRx(pkt.Type)
		h.applyq = append(h.applyq, applyItem{pkt: pkt, done: done})
		h.eng.Schedule(h.timing.MPMWrite, h.applyFn) //tgvet:allow eventdrop(memory-port apply delay always fires; no cancel path exists)

	case packet.ReadReq:
		h.countRx(pkt.Type)
		//tgvet:allow eventdrop(memory-port read delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMRead, func() {
			v := h.mem.ReadWord(pkt.Addr.Offset())
			h.reply(&packet.Packet{Type: packet.ReadReply, Dst: pkt.Src, Val: v, ReqID: pkt.ReqID})
			if done != nil {
				done()
			}
		})

	case packet.AtomicReq:
		h.countRx(pkt.Type)
		//tgvet:allow eventdrop(atomic read-modify-write delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMRead+h.timing.MPMWrite, func() {
			old := h.applyAtomic(pkt.Op, pkt.Addr.Offset(), pkt.Val, pkt.Val2)
			h.Emit(trace.EvAtomicApply, uint64(pkt.Addr), pkt.Val, uint64(pkt.Src))
			h.reply(&packet.Packet{Type: packet.AtomicReply, Dst: pkt.Src, Val: old, ReqID: pkt.ReqID})
			if done != nil {
				done()
			}
		})

	case packet.CombAddReq:
		h.countRx(pkt.Type)
		//tgvet:allow eventdrop(atomic read-modify-write delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMRead+h.timing.MPMWrite, func() {
			h.applyCombAdd(pkt)
			if done != nil {
				done()
			}
		})

	case packet.BarrierArrive, packet.ReduceReq:
		h.countRx(pkt.Type)
		h.collArrivePkt(pkt)
		if done != nil {
			done()
		}

	case packet.BarrierRelease, packet.ReduceResult:
		h.countRx(pkt.Type)
		h.collReleasePkt(pkt)
		if done != nil {
			done()
		}

	case packet.MsgData:
		if h.msgSink != nil {
			return false
		}
		h.countRx(pkt.Type)
		h.Counters.Inc("msg-dropped")
		if done != nil {
			done()
		}

	case packet.WriteAck:
		h.countRx(pkt.Type)
		h.AddOutstanding(-1)
		h.freePacket(pkt)
		if done != nil {
			done()
		}

	case packet.ReadReply, packet.AtomicReply, packet.CombAddReply:
		h.countRx(pkt.Type)
		fut, ok := h.pendingReads[pkt.ReqID]
		if !ok {
			h.Counters.Inc("orphan-reply")
		} else {
			delete(h.pendingReads, pkt.ReqID)
			fut.Resolve(pkt.Val)
		}
		if done != nil {
			done()
		}

	case packet.CopyData:
		h.countRx(pkt.Type)
		//tgvet:allow eventdrop(burst-copy setup delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMWrite, func() { // burst setup
			if len(pkt.Data) > 0 {
				for j, w := range pkt.Data {
					h.mem.WriteWord(pkt.Addr.Offset()+8*uint64(j), w)
				}
			} else {
				h.mem.WriteWord(pkt.Addr.Offset(), pkt.Val)
			}
			h.Emit(trace.EvCopyApply, uint64(pkt.Addr), uint64(len(pkt.Data)), pkt.ReqID)
			if pkt.Last {
				if pkt.Origin == h.node {
					h.AddOutstanding(-1)
				} else {
					h.ack(pkt.Origin)
				}
			}
			if done != nil {
				done()
			}
		})

	case packet.CopyReq:
		return false // multi-burst streaming: keep the process implementation

	default:
		// UpdateFwd, ReflectedWrite, InvReq, RingUpdate belong to a
		// coherence protocol; with none installed they are dropped
		// visibly.
		h.countRx(pkt.Type)
		h.Counters.Inc(unhandledLabel(pkt.Type))
		if done != nil {
			done()
		}
	}
	return true
}

// handleRequest services one arrived request packet. It runs in the HIB's
// request receiver process (or a loopback process), so requests serialize
// through the board the way they serialize through the real HIB's control
// logic — which is what makes the home node a serialization point for
// atomic operations.
func (h *HIB) handleRequest(p *sim.Proc, pkt *packet.Packet) {
	h.countRx(pkt.Type)
	if h.coherence != nil && h.coherence.IncomingPacket(p, pkt) {
		return
	}
	switch pkt.Type {
	case packet.WriteReq:
		p.Sleep(h.timing.MPMWrite)
		h.mem.WriteWord(pkt.Addr.Offset(), pkt.Val)
		h.Emit(trace.EvWriteApply, uint64(pkt.Addr), pkt.Val, uint64(pkt.Src))
		h.ack(pkt.Src)

	case packet.ReadReq:
		p.Sleep(h.timing.MPMRead)
		v := h.mem.ReadWord(pkt.Addr.Offset())
		h.reply(&packet.Packet{Type: packet.ReadReply, Dst: pkt.Src, Val: v, ReqID: pkt.ReqID})

	case packet.AtomicReq:
		p.Sleep(h.timing.MPMRead + h.timing.MPMWrite)
		old := h.applyAtomic(pkt.Op, pkt.Addr.Offset(), pkt.Val, pkt.Val2)
		h.Emit(trace.EvAtomicApply, uint64(pkt.Addr), pkt.Val, uint64(pkt.Src))
		h.reply(&packet.Packet{Type: packet.AtomicReply, Dst: pkt.Src, Val: old, ReqID: pkt.ReqID})

	case packet.CombAddReq:
		p.Sleep(h.timing.MPMRead + h.timing.MPMWrite)
		h.applyCombAdd(pkt)

	case packet.BarrierArrive, packet.ReduceReq:
		h.collArrivePkt(pkt)

	case packet.CopyReq:
		h.streamCopy(p, pkt)

	case packet.MsgData:
		if h.msgSink != nil {
			h.Emit(trace.EvMsgDeliver, uint64(pkt.Addr), uint64(pkt.Len), uint64(pkt.Src))
			h.msgSink(p, pkt)
		} else {
			h.Counters.Inc("msg-dropped")
		}

	default:
		// UpdateFwd, ReflectedWrite, InvReq, RingUpdate belong to a
		// coherence protocol; with none installed they are dropped
		// visibly.
		h.Counters.Inc(unhandledLabel(pkt.Type))
	}
}

// handleReply services one arrived reply packet.
func (h *HIB) handleReply(p *sim.Proc, pkt *packet.Packet) {
	h.countRx(pkt.Type)
	if h.coherence != nil && h.coherence.IncomingPacket(p, pkt) {
		return
	}
	switch pkt.Type {
	case packet.WriteAck:
		h.AddOutstanding(-1)

	case packet.ReadReply, packet.AtomicReply, packet.CombAddReply:
		fut, ok := h.pendingReads[pkt.ReqID]
		if !ok {
			h.Counters.Inc("orphan-reply")
			return
		}
		delete(h.pendingReads, pkt.ReqID)
		fut.Resolve(pkt.Val)

	case packet.BarrierRelease, packet.ReduceResult:
		h.collReleasePkt(pkt)

	case packet.CopyData:
		p.Sleep(h.timing.MPMWrite) // burst setup
		if len(pkt.Data) > 0 {
			for j, w := range pkt.Data {
				h.mem.WriteWord(pkt.Addr.Offset()+8*uint64(j), w)
			}
		} else {
			h.mem.WriteWord(pkt.Addr.Offset(), pkt.Val)
		}
		h.Emit(trace.EvCopyApply, uint64(pkt.Addr), uint64(len(pkt.Data)), pkt.ReqID)
		if pkt.Last {
			if pkt.Origin == h.node {
				h.AddOutstanding(-1)
			} else {
				h.ack(pkt.Origin)
			}
		}

	default:
		h.Counters.Inc(unhandledLabel(pkt.Type))
	}
}

// ack sends a WriteAck to dst so its HIB can decrement its
// outstanding-operation counter.
func (h *HIB) ack(dst addrspace.NodeID) {
	pkt := h.newPacket()
	pkt.Type = packet.WriteAck
	pkt.Dst = dst
	h.reply(pkt)
}

// applyAtomic performs op on the word at offset and returns the previous
// value. It is atomic because all requests serialize through the single
// handler process — the same argument the paper makes for the HIB.
func (h *HIB) applyAtomic(op packet.AtomicOp, offset uint64, val, val2 uint64) uint64 {
	old := h.mem.ReadWord(offset)
	switch op {
	case packet.FetchAndStore:
		h.mem.WriteWord(offset, val)
	case packet.FetchAndInc:
		h.mem.WriteWord(offset, old+1)
	case packet.CompareAndSwap:
		if old == val2 {
			h.mem.WriteWord(offset, val)
		}
	}
	h.Counters.Inc("atomic-" + op.String())
	return old
}

// copyChunkWords is the DMA burst size of the copy engine: each CopyData
// packet carries up to this many payload words, so bulk copies run at
// link bandwidth instead of paying a packet header per word.
const copyChunkWords = 64

// streamCopy services a CopyReq: it reads Len words starting at the
// request's source address (homed here) and streams them as chunked
// CopyData packets to the destination node. Each burst pays one memory
// access setup (page-mode DRAM). The final packet carries Last so the
// destination can signal completion to the origin.
func (h *HIB) streamCopy(p *sim.Proc, pkt *packet.Packet) {
	words := uint64(pkt.Len)
	for i := uint64(0); i < words; i += copyChunkWords {
		n := min(uint64(copyChunkWords), words-i)
		p.Sleep(h.timing.MPMRead) // burst setup
		data := make([]uint64, n)
		for j := range data {
			data[j] = h.mem.ReadWord(pkt.Addr.Offset() + 8*(i+uint64(j)))
		}
		out := &packet.Packet{
			Type:   packet.CopyData,
			Src:    h.node,
			Dst:    pkt.Addr2.Node(),
			Addr:   pkt.Addr2.Add(8 * i),
			Data:   data,
			Origin: pkt.Origin,
			ReqID:  pkt.ReqID,
			Last:   i+n == words,
		}
		if out.Dst == h.node {
			h.deliverLocal(out)
		} else {
			h.post(out)
		}
	}
}

// reply enqueues a reply packet from this node.
func (h *HIB) reply(pkt *packet.Packet) {
	pkt.Src = h.node
	if pkt.Dst == h.node {
		h.deliverLocal(pkt)
		return
	}
	h.post(pkt)
}
