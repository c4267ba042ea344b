// Package hib models the Telegraphos Host Interface Board (§2.2) — the
// paper's central artifact. The HIB plugs into a workstation's
// TurboChannel and implements, entirely in hardware (i.e. without OS
// intervention on the data path):
//
//   - non-blocking remote writes triggered by plain stores;
//   - blocking remote reads triggered by plain loads;
//   - non-blocking remote copy (prefetch);
//   - remote atomic operations (fetch&store, fetch&inc, compare&swap)
//     launched from user level through Telegraphos contexts, shadow
//     addressing and keys (§2.2.4);
//   - page access counters with alarm interrupts (§2.2.6);
//   - outstanding-operation counters and a FENCE (§2.3.5);
//   - eager-update multicast of local writes to mapped-out pages (§2.2.7).
//
// The board is a state machine, not a thread: it services every packet
// with chained events and no process. A coherence protocol (package
// coherence) can attach through the Coherence interface to intercept
// shared-memory traffic.
package hib

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/mem"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
	"telegraphos/internal/tchan"
	"telegraphos/internal/topology"
	"telegraphos/internal/trace"
)

// Coherence is the hook a memory-coherence protocol installs on the HIB.
// Each hook reports whether it fully handled the access (true) or
// whether the HIB's default behaviour should proceed (false). The CPU
// hooks run in the accessing process and may block it.
type Coherence interface {
	// LocalSharedWrite intercepts a CPU store to this node's shared
	// region (a page that may be replicated).
	LocalSharedWrite(p *sim.Proc, offset uint64, v uint64) bool
	// LocalSharedRead intercepts a CPU load from this node's shared
	// region; handled=false lets the plain MPM read proceed (the
	// counter protocol's rule 4: "the read proceeds normally").
	LocalSharedRead(p *sim.Proc, offset uint64) (v uint64, handled bool)
	// IncomingPacket intercepts a received packet before default
	// handling. It must not block: a protocol claims the packet by
	// returning true and calling done once it is serviced (after any
	// delays it schedules), which frees the receive pipeline.
	IncomingPacket(pkt *packet.Packet, done func()) bool
}

// outItem is one queued outgoing packet; fromCPU marks packets that hold a
// CPU write-queue credit.
type outItem struct {
	pkt     *packet.Packet
	fromCPU bool
}

// applyItem is one request whose memory access is in flight (see
// HIB.applyq).
type applyItem struct {
	pkt  *packet.Packet
	done func()
}

// popItem removes and returns the head of q.
func popItem(q *[]applyItem) applyItem {
	it := (*q)[0]
	n := copy(*q, (*q)[1:])
	(*q)[n] = applyItem{}
	*q = (*q)[:n]
	return it
}

// PacketPool recycles consumed packets: WriteReq/WriteAck, the
// ReadReq/ReadReply and AtomicReq/AtomicReply pairs, CopyData bursts,
// and the update protocol's UpdateFwd, ReflectedWrite and WriteAck
// (HIB.NewPacket/FreePacket). The boards of one simulation engine share
// one pool, so a packet consumed on one board serves the next send of
// any board on that engine, whichever way the traffic flows; a pool is
// engine-local state, touched only by that engine's events, so it is
// race-free across shards.
//
// A packet is freed only by the board that consumed it. Nothing
// upstream reads a delivered packet again: switches forward the pointer
// and forget it, and a faulty link's ARQ sublayer holds it only as an
// opaque token — a retransmission re-sends the pointer unread, and the
// receiver discards any frame it has already delivered by sequence
// number alone (link/fault.go). So recycling is safe on every fabric.
// CombAddReq/CombAddReply are never freed: switches merge and split
// them.
type PacketPool struct {
	free []*packet.Packet
	// core.New allocates the pools of concurrently running shards side
	// by side; the pad keeps each pool's slice header off the cache
	// line its neighbour writes.
	_ [64]byte
}

// get returns a zeroed packet, reusing a recycled one if possible.
func (pp *PacketPool) get() *packet.Packet {
	if n := len(pp.free); n > 0 {
		pkt := pp.free[n-1]
		pp.free = pp.free[:n-1]
		return pkt
	}
	return new(packet.Packet)
}

// put recycles a fully-consumed packet. Callers must guarantee no
// reference survives the call (trace events copy their fields). The
// packet is zeroed but keeps its payload array's capacity, which the
// copy engine's next burst reuses.
func (pp *PacketPool) put(pkt *packet.Packet) {
	*pkt = packet.Packet{Data: pkt.Data[:0]}
	pp.free = append(pp.free, pkt)
}

// HIB is one node's host interface board.
type HIB struct {
	eng       *sim.Engine
	node      addrspace.NodeID
	net       *topology.Network
	bus       *tchan.Bus
	mem       *mem.Memory
	os        *osmodel.OS
	timing    params.Timing
	sizing    params.Sizing
	placement params.Placement

	// Transmit side: one unbounded FIFO and a pump per VC. The pump holds
	// one packet on the injection wire at a time (SendEv + wire-clear
	// callback), which serializes transmissions exactly as the old
	// blocking sender process did. Hosts inject and eject on escape
	// layer 0 (packet.Channel), so the board serves only the two layer-0
	// channels, indexed by message class; the higher layers exist inside
	// the fabric only.
	outQ      [packet.NumClasses][]outItem
	txBusy    [packet.NumClasses]bool
	txCur     [packet.NumClasses]outItem
	txClearFn [packet.NumClasses]func()

	// Receive side: one pump per VC, driven by link arrival
	// notifications. Packets serialize through the board — HIBService,
	// then the handler's memory timing — with the pump's busy flag
	// providing the same one-at-a-time discipline the old receiver
	// daemons enforced (the property that makes the home node a
	// serialization point). Servicing is chained events throughout (see
	// service).
	rxBusy  [packet.NumClasses]bool
	rxCur   [packet.NumClasses]*packet.Packet
	rxSvcFn [packet.NumClasses]func()
	rxDonFn [packet.NumClasses]func()

	// Pending memory accesses of WriteReq (applyq), ReadReq (readq) and
	// AtomicReq (atomq) packets, each in MPM order: every access of one
	// kind is scheduled the same delay ahead, and events fire in schedule
	// order at equal deltas, so a FIFO plus one prebound handler per kind
	// services the board's request packets without a per-packet closure.
	applyq  []applyItem
	applyFn func()
	readq   []applyItem
	readFn  func()
	atomq   []applyItem
	atomFn  func()
	copyq   []applyItem // CopyData bursts, after the MPM write setup
	copyFn  func()

	// pool supplies every packet the board builds and takes back every
	// packet it consumes (see PacketPool).
	pool *PacketPool

	cpuCredits *sim.Semaphore // bounds CPU-originated in-flight writes
	readSlots  *sim.Semaphore // bounds outstanding remote reads

	outstanding int             // outstanding remote operations (writes + copies)
	fence       *sim.Completion // FENCE waiters; completed and reset at every drain

	// Blocking requests (reads, atomics) in flight by ID, and resolved
	// futures kept for reuse (see newRequest).
	nextReqID    uint64
	pendingReads map[uint64]*sim.Future[uint64]
	freeFutures  []*sim.Future[uint64]

	// In-network collective state (see collops.go): group memberships
	// and the combinable-fetch&add launch flag.
	collGroups map[uint64]*collGroup
	combining  bool

	opSeq uint64 // boundary-event sequence (pairs invoke/return)

	contexts     []tgContext
	pageCounters map[addrspace.GPage]*pageCounter
	multicast    map[addrspace.PageNum][]addrspace.GPage
	mcastUsed    int
	coherence    Coherence
	msgSink      MsgSink
	pal          palState
	recorder     func(trace.Event)

	// Counters is the HIB's telemetry (operation and packet counts).
	Counters *stats.CounterSet

	// counts holds the fixed per-packet and per-operation counters,
	// bound into Counters under the shared counterLabels (handlers.go):
	// the hot paths bump an array slot, and building a board allocates
	// no cell or map entry for them.
	counts [numCounters]int64

	// Cells of the unbound counters bumped once per operation, resolved
	// on first bump (stats.CounterSet.IncLazy) so reports keep the
	// counters' first-use order.
	fences, shadowStores, launchAtomics *int64
	atomics                             [len(atomicLabels)]*int64
}

// New builds the HIB for node and registers its transmit and receive
// pumps with the network. pool is the packet pool of eng's boards.
func New(eng *sim.Engine, node addrspace.NodeID, net *topology.Network, bus *tchan.Bus,
	m *mem.Memory, os *osmodel.OS, pool *PacketPool, cfg params.Config) *HIB {
	h := &HIB{
		eng:          eng,
		node:         node,
		net:          net,
		bus:          bus,
		mem:          m,
		os:           os,
		timing:       cfg.Timing,
		sizing:       cfg.Sizing,
		placement:    cfg.Placement,
		cpuCredits:   sim.NewSemaphore(eng, cfg.Sizing.HIBWriteQueue),
		readSlots:    sim.NewSemaphore(eng, max(cfg.Sizing.MaxOutstandingRds, 1)),
		fence:        sim.NewCompletion(eng),
		pendingReads: make(map[uint64]*sim.Future[uint64]),
		contexts:     make([]tgContext, cfg.Sizing.Contexts),
		pageCounters: make(map[addrspace.GPage]*pageCounter),
		multicast:    make(map[addrspace.PageNum][]addrspace.GPage),
		Counters:     stats.NewCounterSet(),
		pool:         pool,
	}
	h.Counters.Bind(counterLabels, h.counts[:])
	h.start()
	return h
}

// newPacket returns a zeroed packet from the board's pool.
func (h *HIB) newPacket() *packet.Packet { return h.pool.get() }

// freePacket returns a fully-consumed packet to the board's pool.
func (h *HIB) freePacket(pkt *packet.Packet) { h.pool.put(pkt) }

// NewPacket returns a zeroed packet from the board's pool, for the sends
// of an attached protocol layer.
func (h *HIB) NewPacket() *packet.Packet { return h.newPacket() }

// FreePacket returns a packet that an attached protocol layer consumed
// to the board's pool (see PacketPool). No reference may survive the
// call.
func (h *HIB) FreePacket(pkt *packet.Packet) { h.freePacket(pkt) }

// Node reports the node this HIB serves.
func (h *HIB) Node() addrspace.NodeID { return h.node }

// Mem exposes the shared-memory backing store (MPM).
func (h *HIB) Mem() *mem.Memory { return h.mem }

// Timing exposes the board's timing constants.
func (h *HIB) Timing() params.Timing { return h.timing }

// SetCoherence installs the coherence protocol hooks.
func (h *HIB) SetCoherence(c Coherence) { h.coherence = c }

// SetRecorder installs an event recorder: every observable memory action
// serviced by this board (and by an attached coherence protocol) is
// appended to it. Used by the simulation-test harness; nil disables
// recording.
func (h *HIB) SetRecorder(fn func(trace.Event)) { h.recorder = fn }

// Emit records one event on this node's stream (no-op without a
// recorder). Exposed so attached protocol layers share the board's log.
func (h *HIB) Emit(kind trace.EventKind, addr, val, aux uint64) {
	if h.recorder == nil {
		return
	}
	h.recorder(trace.Event{At: int64(h.eng.Now()), Node: int(h.node), Kind: kind, Addr: addr, Val: val, Aux: aux})
}

// invokeOp records a program-level operation crossing the board (the HIB
// op boundary) and returns the sequence number that pairs the matching
// returnOp. The invoke/return intervals feed the linearizability and
// fence-order checkers (internal/linearize).
func (h *HIB) invokeOp(op trace.BoundaryOp, addr addrspace.GAddr, arg uint64) uint64 {
	h.opSeq++
	seq := h.opSeq
	h.Emit(trace.EvOpInvoke, uint64(addr), arg, trace.BoundaryAux(op, seq))
	return seq
}

// returnOp closes the boundary interval opened by invokeOp.
func (h *HIB) returnOp(op trace.BoundaryOp, seq uint64, addr addrspace.GAddr, ret uint64) {
	h.Emit(trace.EvOpReturn, uint64(addr), ret, trace.BoundaryAux(op, seq))
}

// Outstanding reports the current count of outstanding remote operations.
func (h *HIB) Outstanding() int { return h.outstanding }

// start registers the board's event-driven pumps with the network.
func (h *HIB) start() {
	for vc := packet.VC(0); vc < packet.NumClasses; vc++ {
		vc := vc
		h.txClearFn[vc] = func() { h.txClear(vc) }
		h.rxSvcFn[vc] = func() { h.rxService(vc) }
		h.rxDonFn[vc] = func() { h.rxDone(vc) }
		h.net.SetNotify(h.node, vc, func() { h.rxPump(vc) })
	}
	h.applyFn = h.applyWrite
	h.readFn = h.serveRead
	h.atomFn = h.serveAtomic
	h.copyFn = h.applyCopy
}

// applyWrite completes the oldest in-flight WriteReq: the MPM write lands,
// the apply event is recorded, and the acknowledgement heads home.
func (h *HIB) applyWrite() {
	it := popItem(&h.applyq)
	pkt := it.pkt
	h.mem.WriteWord(pkt.Addr.Offset(), pkt.Val)
	h.Emit(trace.EvWriteApply, uint64(pkt.Addr), pkt.Val, uint64(pkt.Src))
	h.ack(pkt.Src)
	h.freePacket(pkt)
	it.done()
}

// serveRead completes the oldest in-flight ReadReq: the MPM word heads
// home in a ReadReply.
func (h *HIB) serveRead() {
	it := popItem(&h.readq)
	req := it.pkt
	rep := h.newPacket()
	rep.Type = packet.ReadReply
	rep.Dst = req.Src
	rep.Val = h.mem.ReadWord(req.Addr.Offset())
	rep.ReqID = req.ReqID
	h.freePacket(req)
	h.reply(rep)
	it.done()
}

// serveAtomic completes the oldest in-flight AtomicReq: the
// read-modify-write lands and the old value heads home in an
// AtomicReply.
func (h *HIB) serveAtomic() {
	it := popItem(&h.atomq)
	req := it.pkt
	old := h.applyAtomic(req.Op, req.Addr.Offset(), req.Val, req.Val2)
	h.Emit(trace.EvAtomicApply, uint64(req.Addr), req.Val, uint64(req.Src))
	rep := h.newPacket()
	rep.Type = packet.AtomicReply
	rep.Dst = req.Src
	rep.Val = old
	rep.ReqID = req.ReqID
	h.freePacket(req)
	h.reply(rep)
	it.done()
}

// applyCopy completes the oldest in-flight CopyData burst: its words
// land in the MPM, and the stream's last burst signals completion to
// the copy's origin.
func (h *HIB) applyCopy() {
	it := popItem(&h.copyq)
	pkt := it.pkt
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
	h.freePacket(pkt)
	it.done()
}

// txPump launches the oldest queued packet on vc's injection link; the
// next launch happens from the wire-clear callback.
func (h *HIB) txPump(vc packet.VC) {
	if h.txBusy[vc] || len(h.outQ[vc]) == 0 {
		return
	}
	q := h.outQ[vc]
	it := q[0]
	copy(q, q[1:])
	q[len(q)-1] = outItem{}
	h.outQ[vc] = q[:len(q)-1]
	h.txBusy[vc] = true
	h.txCur[vc] = it
	h.net.SendEv(it.pkt, h.txClearFn[vc])
}

// txClear runs when the in-flight packet clears the injection wire: the
// write-queue credit a CPU packet held is only returned now, preserving
// the board's finite-FIFO back-pressure on the TurboChannel.
func (h *HIB) txClear(vc packet.VC) {
	if h.txCur[vc].fromCPU {
		h.cpuCredits.Release()
	}
	h.txCur[vc] = outItem{}
	h.txBusy[vc] = false
	h.txPump(vc)
}

// rxPump consumes the next arrived packet on vc and starts its
// HIBService stage, unless the board is still servicing the previous
// packet on that VC.
func (h *HIB) rxPump(vc packet.VC) {
	if h.rxBusy[vc] {
		return
	}
	pkt, ok := h.net.TryRecv(h.node, vc)
	if !ok {
		return
	}
	h.rxBusy[vc] = true
	h.rxCur[vc] = pkt
	h.eng.Schedule(h.timing.HIBService, h.rxSvcFn[vc]) //tgvet:allow eventdrop(rx service delay always fires; rxBusy stays held until it does)
}

// rxService runs HIBService after arrival: it hands the packet to
// service, which releases the VC's pipeline through rxDone once the
// packet is serviced.
func (h *HIB) rxService(vc packet.VC) {
	pkt := h.rxCur[vc]
	h.rxCur[vc] = nil
	h.service(pkt, h.rxDonFn[vc])
}

// rxDone releases the VC's service pipeline and pulls in the next packet.
func (h *HIB) rxDone(vc packet.VC) {
	h.rxBusy[vc] = false
	h.rxPump(vc)
}

// post enqueues an HIB-generated packet for transmission. A packet
// addressed to this very node never reaches the wire: the board's
// internal loopback path services it directly (the intra-node fast
// path multi-core nodes lean on — cores of one workstation exchange
// messages without crossing the fabric).
func (h *HIB) post(pkt *packet.Packet) {
	if pkt.Dst == h.node {
		h.deliverLocal(pkt)
		return
	}
	vc := pkt.Class()
	h.outQ[vc] = append(h.outQ[vc], outItem{pkt: pkt})
	h.txPump(vc)
}

// Post enqueues a protocol packet for transmission on behalf of an
// attached coherence layer.
func (h *HIB) Post(pkt *packet.Packet) {
	pkt.Src = h.node
	h.countTx(pkt.Type)
	h.post(pkt)
}

// postCPU enqueues a CPU-originated packet, blocking p for a write-queue
// credit: this is the board's finite outgoing FIFO back-pressuring the
// TurboChannel. Self-addressed packets take the loopback fast path and
// skip the credit — they never occupy the outgoing FIFO.
func (h *HIB) postCPU(p *sim.Proc, pkt *packet.Packet) {
	if pkt.Dst == h.node {
		h.deliverLocal(pkt)
		return
	}
	h.cpuCredits.Acquire(p)
	vc := pkt.Class()
	h.outQ[vc] = append(h.outQ[vc], outItem{pkt: pkt, fromCPU: true})
	h.txPump(vc)
}

// AddOutstanding adjusts the outstanding-operation counter; at zero all
// FENCE waiters are released. Exposed for the coherence layer, which
// issues its own protocol writes.
func (h *HIB) AddOutstanding(delta int) {
	h.outstanding += delta
	if h.outstanding < 0 {
		panic("hib: outstanding operation counter went negative")
	}
	if h.outstanding == 0 {
		h.fence.Complete() // wakes the waiters in FIFO order
		h.fence.Reset()
	}
}

// Fence blocks p until every outstanding remote operation issued by this
// node has completed (§2.3.5 MEMORY_BARRIER). Only the CPU-facing fence
// emits the EvFenceStart/EvFenceEnd boundary events the history checker
// consumes; coherence protocols draining their own traffic use
// WaitOutstanding so internal waits are not mistaken for programmer
// barriers.
func (h *HIB) Fence(p *sim.Proc) {
	h.Counters.IncLazy(&h.fences, "fence")
	h.Emit(trace.EvFenceStart, 0, uint64(h.outstanding), 0)
	h.WaitOutstanding(p)
	// Val records the outstanding count at completion: zero in a correct
	// board, asserted by the fence checker (linearize.CheckFences).
	h.Emit(trace.EvFenceEnd, 0, uint64(h.outstanding), 0)
}

// WaitOutstanding blocks p until the outstanding-operation counter
// drains to zero, without recording a memory-barrier boundary event.
func (h *HIB) WaitOutstanding(p *sim.Proc) {
	if h.outstanding != 0 {
		h.fence.Wait(p)
	}
}

// newRequest assigns the next request ID and registers the future its
// reply resolves, reusing a freed one when it can.
func (h *HIB) newRequest() (uint64, *sim.Future[uint64]) {
	h.nextReqID++
	var fut *sim.Future[uint64]
	if n := len(h.freeFutures); n > 0 {
		fut = h.freeFutures[n-1]
		h.freeFutures = h.freeFutures[:n-1]
	} else {
		fut = sim.NewFuture[uint64](h.eng)
	}
	h.pendingReads[h.nextReqID] = fut
	return h.nextReqID, fut
}

// awaitReply blocks p until fut resolves, then keeps fut for reuse.
func (h *HIB) awaitReply(p *sim.Proc, fut *sim.Future[uint64]) uint64 {
	v := fut.Wait(p)
	fut.Reset()
	h.freeFutures = append(h.freeFutures, fut)
	return v
}
