package hib

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// In-network collective operations: the HIB endpoints of the combining
// trees, switch-resident barriers and in-fabric reductions whose switch
// half lives in internal/switchfab (collective.go) and whose user API is
// internal/collective.
//
// The board's role is small by design — the fabric does the combining:
//
//   - A participant's arrival is one BarrierArrive/ReduceReq posted
//     toward the root; the switches absorb and combine these upward.
//   - The root HIB accumulates the (already combined) arrivals plus its
//     own local arrival, and when the whole group has reported it posts
//     a single BarrierRelease/ReduceResult that the switches replicate
//     downward (in-fabric multicast).
//   - With combining enabled, a remote fetch&increment launch travels
//     as a combinable CombAddReq instead of an AtomicReq; the home
//     applies the (possibly merged) addend once and the merging switch
//     de-combines the reply.
//
// No per-round fabric state is needed: release r is sent only after
// every round-r arrival, and no participant starts round r+1 before
// receiving release r, so rounds cannot mix in flight.

// CollGroupConfig declares one node's membership of a collective group.
type CollGroupConfig struct {
	// ID names the group fabric-wide (also the Addr of its packets).
	ID uint64
	// Root is the node whose HIB accumulates arrivals and releases.
	Root addrspace.NodeID
	// Expect is the total participant count, root included (used by the
	// root to detect a complete round).
	Expect int
	// ReleaseDst is where the root addresses its single release packet —
	// any non-root participant works, the switches re-replicate — or the
	// root itself when it is the sole participant (no packet is sent).
	ReleaseDst addrspace.NodeID
}

// collGroup is the per-node state of one collective group.
type collGroup struct {
	cfg   CollGroupConfig
	round uint64

	// Root-side accumulation for the in-progress round. Early arrivals
	// for round r+1 (the fabric can deliver them before the root's own
	// program arrives) accumulate here harmlessly: the count cannot
	// reach Expect until the root's local arrival joins.
	count   int
	agg     uint64
	haveAgg bool

	// Waiter state for this node's in-progress episode.
	done   *sim.Completion
	result uint64
}

// JoinCollective installs group membership on this board. Call once per
// group before traffic starts (the collective.Manager does).
func (h *HIB) JoinCollective(cfg CollGroupConfig) {
	if h.collGroups == nil {
		h.collGroups = make(map[uint64]*collGroup)
	}
	h.collGroups[cfg.ID] = &collGroup{cfg: cfg}
}

// SetCombining routes remote fetch&increment launches through the
// combinable CombAddReq path so switches can merge them in flight.
func (h *HIB) SetCombining(on bool) { h.combining = on }

// CollectiveArrive performs one episode of group id and blocks p until
// the release returns: a barrier when reduce is false, otherwise a
// reduction of operand under rop (every participant of a round must
// pass the same rop). It returns the reduction result (0 for barriers).
func (h *HIB) CollectiveArrive(p *sim.Proc, id uint64, reduce bool, rop packet.ReduceOp, operand uint64) uint64 {
	g := h.collGroups[id]
	if g == nil {
		panic("hib: CollectiveArrive on an unjoined group")
	}
	bop := trace.BOpBarrier
	if reduce {
		bop = trace.BOpReduce
	}
	seq := h.invokeOp(bop, addrspace.GAddr(id), operand)
	h.Counters.Inc("coll-arrive")
	g.round++
	g.done = sim.NewCompletion(h.eng)
	g.result = 0
	if h.node == g.cfg.Root {
		h.collAccumulate(g, 1, operand, reduce, rop)
	} else {
		pkt := &packet.Packet{
			Src:  h.node,
			Dst:  g.cfg.Root,
			Addr: addrspace.GAddr(id),
			Val2: g.round,
			Rop:  rop,
		}
		if reduce {
			pkt.Type = packet.ReduceReq
			pkt.Val = operand
			pkt.ReqID = 1 // participants this arrival represents
		} else {
			pkt.Type = packet.BarrierArrive
			pkt.Val = 1
		}
		h.countTx(pkt.Type)
		h.postCPU(p, pkt)
	}
	g.done.Wait(p)
	ret := g.result
	h.returnOp(bop, seq, addrspace.GAddr(id), ret)
	return ret
}

// collAccumulate folds one contribution (count participants, an already
// combined operand) into the root's round accumulator and fires the
// release when the whole group has reported.
func (h *HIB) collAccumulate(g *collGroup, count int, val uint64, reduce bool, rop packet.ReduceOp) {
	g.count += count
	if reduce {
		if g.haveAgg {
			g.agg = rop.Fold(g.agg, val)
		} else {
			g.agg, g.haveAgg = val, true
		}
	}
	if g.count < g.cfg.Expect {
		return
	}
	result := g.agg
	g.count, g.agg, g.haveAgg = 0, 0, false
	h.Counters.Inc("coll-release")
	if g.cfg.ReleaseDst != h.node {
		rel := &packet.Packet{
			Dst:  g.cfg.ReleaseDst,
			Addr: addrspace.GAddr(g.cfg.ID),
			Val2: g.round,
			Rop:  rop,
		}
		if reduce {
			rel.Type = packet.ReduceResult
			rel.Val = result
		} else {
			rel.Type = packet.BarrierRelease
		}
		h.countTx(rel.Type)
		h.reply(rel)
	}
	g.result = result
	g.done.Complete()
}

// collArrivePkt services a BarrierArrive/ReduceReq at the root board.
// Pure counter work on the board: it adds no delay of its own.
func (h *HIB) collArrivePkt(pkt *packet.Packet) {
	g := h.collGroups[uint64(pkt.Addr)]
	if g == nil {
		h.Counters.Inc("coll-orphan")
		return
	}
	if pkt.Type == packet.ReduceReq {
		h.collAccumulate(g, int(pkt.ReqID), pkt.Val, true, pkt.Rop)
	} else {
		h.collAccumulate(g, int(pkt.Val), 0, false, pkt.Rop)
	}
}

// collReleasePkt services a BarrierRelease/ReduceResult at a
// participant board: record the result, wake the waiting episode.
func (h *HIB) collReleasePkt(pkt *packet.Packet) {
	g := h.collGroups[uint64(pkt.Addr)]
	if g == nil || g.done == nil {
		h.Counters.Inc("coll-orphan")
		return
	}
	g.result = pkt.Val
	g.done.Complete()
}

// applyCombAdd services a (possibly switch-merged) combinable
// fetch-and-add at the home: one atomic read-modify-write applies the
// whole combined addend, and the reply carries the pre-add value plus
// the address and request ID the merging switch needs to de-combine.
func (h *HIB) applyCombAdd(pkt *packet.Packet) {
	offset := pkt.Addr.Offset()
	old := h.mem.ReadWord(offset)
	h.mem.WriteWord(offset, old+pkt.Val)
	h.Counters.Inc("atomic-fetch&add")
	h.Emit(trace.EvAtomicApply, uint64(pkt.Addr), pkt.Val, uint64(pkt.Src))
	h.reply(&packet.Packet{
		Type:  packet.CombAddReply,
		Dst:   pkt.Src,
		Addr:  pkt.Addr,
		Val:   old,
		ReqID: pkt.ReqID,
	})
}
