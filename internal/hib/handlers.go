package hib

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/stats"
	"telegraphos/internal/trace"
)

// MsgSink receives bulk MsgData packets (set by the message-passing
// layer). It runs in the board's receive pipeline and must not block.
type MsgSink func(pkt *packet.Packet)

// SetMsgSink installs the MsgData delivery callback.
func (h *HIB) SetMsgSink(fn MsgSink) { h.msgSink = fn }

// The board's fixed counters, slots of HIB.counts: a receive and a
// transmit count per packet type (rx of type t at 2t, tx at 2t+1), then
// the five per-operation counts. counterLabels names them in this
// order, which is the order reports list them in.
const (
	cntLocalSharedWrite = 2*packet.NumTypes + iota
	cntLocalSharedRead
	cntRemoteWrite
	cntRemoteRead
	cntMulticastWrite
	numCounters
)

// Precomputed telemetry labels: counterLabels for the fixed counters,
// and, indexed by packet type, unhandledLabels, so handle counts a
// dropped packet without building "unhandled-"+Type.String() per
// packet. atomicLabels, indexed by atomic opcode, does the same for
// applyAtomic.
var (
	counterLabels   *stats.CounterLabels
	unhandledLabels [packet.NumTypes]string
	atomicLabels    [packet.CompareAndSwap + 1]string
)

func init() {
	names := make([]string, numCounters)
	for t := 0; t < packet.NumTypes; t++ {
		name := packet.Type(t).String()
		names[2*t] = "rx-" + name
		names[2*t+1] = "tx-" + name
		unhandledLabels[t] = "unhandled-" + name
	}
	copy(names[cntLocalSharedWrite:], []string{
		"local-shared-write", "local-shared-read", "remote-write", "remote-read", "multicast-write",
	})
	counterLabels = stats.NewCounterLabels(names)
	for op := range atomicLabels {
		atomicLabels[op] = "atomic-" + packet.AtomicOp(op).String()
	}
}

// countRx/countTx bump the per-type packet counters.
func (h *HIB) countRx(t packet.Type) { h.counts[2*int(t)]++ }

func (h *HIB) countTx(t packet.Type) { h.counts[2*int(t)+1]++ }

// nop is the done callback of loopback deliveries, which hold no
// service pipeline.
func nop() {}

// deliverLocal routes a packet addressed to this node without touching
// the network (the fabric has no self-routes), modeling the board's
// internal loopback path: HIBService, then the normal handler. Loopback
// servicing runs concurrently with the receive pumps.
func (h *HIB) deliverLocal(pkt *packet.Packet) {
	//tgvet:allow eventdrop(loopback service delay always fires; no cancel path exists)
	h.eng.Schedule(h.timing.HIBService, func() { h.service(pkt, nop) })
}

// service counts an arrived packet and services it; done runs when
// servicing completes, releasing the caller's service pipeline. Requests
// serialize through the board the way they serialize through the real
// HIB's control logic — which is what makes the home node a
// serialization point for atomic operations.
//
// An installed coherence protocol sees every packet first; a packet it
// declines, like every packet on a board without one, goes to the copy
// engine (CopyReq), the message sink (MsgData) or handle.
func (h *HIB) service(pkt *packet.Packet, done func()) {
	h.countRx(pkt.Type)
	switch {
	case h.coherence != nil && h.coherence.IncomingPacket(pkt, done):
		// claimed: the protocol calls done
	case pkt.Type == packet.CopyReq:
		h.streamCopy(pkt, done)
	case pkt.Type == packet.MsgData && h.msgSink != nil:
		h.Emit(trace.EvMsgDeliver, uint64(pkt.Addr), uint64(pkt.Len), uint64(pkt.Src))
		h.msgSink(pkt)
		done()
	default:
		h.handle(pkt, done)
	}
}

// handle services one packet with chained events: each memory access
// is an event delay of its MPM timing, and done runs once the last one
// has fired. CopyReq and sink-bound MsgData never get here (see
// service).
func (h *HIB) handle(pkt *packet.Packet, done func()) {
	switch pkt.Type {
	case packet.WriteReq:
		h.applyq = append(h.applyq, applyItem{pkt: pkt, done: done})
		h.eng.Schedule(h.timing.MPMWrite, h.applyFn) //tgvet:allow eventdrop(memory-port apply delay always fires; no cancel path exists)

	case packet.ReadReq:
		h.readq = append(h.readq, applyItem{pkt: pkt, done: done})
		h.eng.Schedule(h.timing.MPMRead, h.readFn) //tgvet:allow eventdrop(memory-port read delay always fires; no cancel path exists)

	case packet.AtomicReq:
		h.atomq = append(h.atomq, applyItem{pkt: pkt, done: done})
		h.eng.Schedule(h.timing.MPMRead+h.timing.MPMWrite, h.atomFn) //tgvet:allow eventdrop(atomic read-modify-write delay always fires; no cancel path exists)

	case packet.CombAddReq:
		//tgvet:allow eventdrop(atomic read-modify-write delay always fires; no cancel path exists)
		h.eng.Schedule(h.timing.MPMRead+h.timing.MPMWrite, func() {
			h.applyCombAdd(pkt)
			done()
		})

	case packet.BarrierArrive, packet.ReduceReq:
		h.collArrivePkt(pkt)
		done()

	case packet.BarrierRelease, packet.ReduceResult:
		h.collReleasePkt(pkt)
		done()

	case packet.MsgData: // no message sink installed
		h.Counters.Inc("msg-dropped")
		done()

	case packet.WriteAck:
		h.AddOutstanding(-1)
		h.freePacket(pkt)
		done()

	case packet.ReadReply, packet.AtomicReply, packet.CombAddReply:
		fut, ok := h.pendingReads[pkt.ReqID]
		if !ok {
			h.Counters.Inc("orphan-reply")
		} else {
			delete(h.pendingReads, pkt.ReqID)
			fut.Resolve(pkt.Val)
		}
		if pkt.Type != packet.CombAddReply { // switches split combined replies
			h.freePacket(pkt)
		}
		done()

	case packet.CopyData:
		h.copyq = append(h.copyq, applyItem{pkt: pkt, done: done})
		h.eng.Schedule(h.timing.MPMWrite, h.copyFn) //tgvet:allow eventdrop(burst-copy setup delay always fires; no cancel path exists)

	default:
		// UpdateFwd, ReflectedWrite, InvReq, RingUpdate belong to a
		// coherence protocol; with none installed (or one that declines
		// them) they are dropped visibly.
		h.Counters.Inc(unhandledLabels[pkt.Type])
		done()
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
// value. It is atomic because requests serialize through the board's
// receive pipeline (see service) — the same argument the paper makes
// for the HIB.
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
	if int(op) < len(atomicLabels) {
		h.Counters.IncLazy(&h.atomics[op], atomicLabels[op])
	} else {
		h.Counters.Inc("atomic-" + op.String())
	}
	return old
}

// copyChunkWords is the DMA burst size of the copy engine: each CopyData
// packet carries up to this many payload words, so bulk copies run at
// link bandwidth instead of paying a packet header per word.
const copyChunkWords = 64

// streamCopy services a CopyReq: it reads Len words starting at the
// request's source address (homed here) and streams them as chunked
// CopyData packets to the destination node, then calls done. Each burst
// pays one memory access setup (page-mode DRAM), an event chained from
// the previous burst. The final packet carries Last so the destination
// can signal completion to the origin.
func (h *HIB) streamCopy(pkt *packet.Packet, done func()) {
	words, i := uint64(pkt.Len), uint64(0)
	var burst func()
	next := func() {
		if i < words {
			h.eng.Schedule(h.timing.MPMRead, burst) //tgvet:allow eventdrop(burst setup delay always fires; no cancel path exists)
		} else {
			done()
		}
	}
	burst = func() {
		n := min(uint64(copyChunkWords), words-i)
		out := h.newPacket()
		data := out.Data[:0] // a recycled packet keeps its payload array
		if uint64(cap(data)) < n {
			data = make([]uint64, n)
		}
		data = data[:n]
		for j := range data {
			data[j] = h.mem.ReadWord(pkt.Addr.Offset() + 8*(i+uint64(j)))
		}
		out.Type = packet.CopyData
		out.Dst = pkt.Addr2.Node()
		out.Addr = pkt.Addr2.Add(8 * i)
		out.Data = data
		out.Origin = pkt.Origin
		out.ReqID = pkt.ReqID
		out.Last = i+n == words
		h.reply(out)
		i += n
		next()
	}
	next()
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
