// In-network collectives: the switch-resident half of the combining
// trees, barriers and reductions of internal/collective.
//
// Two independent mechanisms live here, both in the spirit of the NYU
// Ultracomputer combining network and of NIC/switch-resident barrier
// protocols on Quadrics/Myrinet-class fabrics:
//
//   - Combining fetch-and-add: CombAddReq packets to the same counter
//     address queued for the same output port are merged inside a
//     bounded wait window; the home node applies one combined add and
//     the merging switch de-combines the single reply into the per
//     requester replies (each carrying its slice of the pre-add value).
//
//   - Collective trees: BarrierArrive/ReduceReq packets flow toward the
//     root and are absorbed by each switch on the way, which forwards a
//     single combined arrival once its whole subtree has reported; the
//     root's single BarrierRelease/ReduceResult is replicated downward
//     along the same tree (in-fabric multicast).
//
// Deadlock-freedom: combined requests ride the request VC and replies
// (including de-combined ones) ride the reply VC, exactly like the
// traffic they replace; the topologies are cycle-free, and emissions go
// through link.SendEv whose per-VC sender queue never blocks the event
// loop, so the collective engine adds no new wait-for edges.
//
// Determinism: all state is keyed lookups (never map iteration); merge
// constituents keep arrival order; down-leg replication follows the
// TreePlan's fixed port order; window flushes are generation-checked so
// a timer firing after an early (fan-in) flush is a no-op.
package switchfab

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
)

// DownLeg is one downward edge of a collective spanning tree at a
// switch: the output port toward a subtree and the smallest participant
// reachable through it (the replica's new destination — any participant
// behind the port works, the next switch re-replicates).
type DownLeg struct {
	Port int
	Rep  addrspace.NodeID
}

// TreePlan describes one switch's role in a collective spanning tree,
// as derived by topology.SpanningTree from the routing tables.
type TreePlan struct {
	// UpPort is the output port toward the root (for the root's own
	// switch this is the root's node port, so the final combined
	// arrival is delivered to the root HIB).
	UpPort int
	// Expect is the number of participants in this switch's subtree;
	// one combined arrival goes up once Expect contributions are in.
	Expect int
	// Rep is the smallest participant in the subtree; combined arrivals
	// carry it as their source for diagnosability.
	Rep addrspace.NodeID
	// Legs are the downward edges in ascending port order.
	Legs []DownLeg
}

// CombineConfig parametrizes fetch-and-add combining at a switch.
type CombineConfig struct {
	// Wait is the bounded combine-window wait: how long the first
	// request to a (port, address) pair is held for partners before it
	// is forwarded. Latency cost of combining, paid only by the window
	// opener.
	Wait sim.Time
	// Fanin caps how many requests merge into one; a full window
	// flushes immediately.
	Fanin int
}

// DefaultCombineConfig holds a window open for two route delays and
// merges up to eight requests — enough to collapse a 64-node hot spot
// in two levels.
func DefaultCombineConfig() CombineConfig {
	return CombineConfig{Wait: 200 * sim.Nanosecond, Fanin: 8}
}

// CollectiveStats are the per-switch observability counters of the
// collective engine.
type CollectiveStats struct {
	// Combined counts requests merged into combined fetch-and-adds
	// (constituents of multi-request merges).
	Combined int64
	// CombineHW is the high-water mark of packets parked across all
	// open combine windows.
	CombineHW int64
	// Arrivals counts barrier/reduce arrival packets absorbed.
	Arrivals int64
	// BarrierRounds counts combined barrier arrivals sent up.
	BarrierRounds int64
	// ReduceRounds counts combined reduce arrivals sent up.
	ReduceRounds int64
	// Releases counts release/result packets replicated downward.
	Releases int64
	// FanoutTotal sums the replicas emitted across all replications.
	FanoutTotal int64
	// FanoutMax is the largest single replication fan-out.
	FanoutMax int64
}

// AddTo folds the counters into cs under collective.* names. Count
// fields accumulate; high-water fields keep the maximum seen.
func (s CollectiveStats) AddTo(cs *stats.CounterSet) {
	cs.Add("collective.combined", s.Combined)
	cs.Add("collective.arrivals", s.Arrivals)
	cs.Add("collective.barrier-rounds", s.BarrierRounds)
	cs.Add("collective.reduce-rounds", s.ReduceRounds)
	cs.Add("collective.releases", s.Releases)
	cs.Add("collective.fanout-total", s.FanoutTotal)
	if hw := cs.Cell("collective.combine-hw"); s.CombineHW > *hw {
		*hw = s.CombineHW
	}
	if fm := cs.Cell("collective.fanout-max"); s.FanoutMax > *fm {
		*fm = s.FanoutMax
	}
}

// mergedBit marks switch-generated merged request IDs; HIB request IDs
// are small counters and never have it set.
const mergedBit = uint64(1) << 63

// combKey identifies a combine window: requests heading out the same
// port for the same counter address are candidates to merge.
type combKey struct {
	port int
	addr addrspace.GAddr
}

// constituent is one original request folded into a merge.
type constituent struct {
	src    addrspace.NodeID
	reqID  uint64
	offset uint64 // sum of the addends that joined before this one
}

// combWindow is an open combine window; gen detects stale flush timers.
type combWindow struct {
	gen  uint64
	pkts []*packet.Packet
}

// mergeRec remembers how to de-combine the reply to one merged request.
type mergeRec struct {
	cons []constituent
}

// groupState is one collective group's per-switch accumulator. No
// per-round state is needed: release r is only sent after every round-r
// arrival, and no participant can arrive for round r+1 before seeing
// release r, so rounds cannot mix inside the fabric.
type groupState struct {
	plan    TreePlan
	count   int
	agg     uint64
	haveAgg bool
}

// collState is the collective engine of one switch.
type collState struct {
	sw     *Switch
	groups map[uint64]*groupState

	combining bool
	ccfg      CombineConfig
	swID      uint64
	seq       uint64
	windows   map[combKey]*combWindow
	merges    map[uint64]*mergeRec
	occupancy int

	stats CollectiveStats
}

// collective lazily allocates the engine.
func (s *Switch) collective() *collState {
	if s.coll == nil {
		s.coll = &collState{
			sw:      s,
			groups:  make(map[uint64]*groupState),
			windows: make(map[combKey]*combWindow),
			merges:  make(map[uint64]*mergeRec),
		}
	}
	return s.coll
}

// RegisterCollective installs this switch's role in the spanning tree
// of collective group id. Register before traffic starts.
func (s *Switch) RegisterCollective(id uint64, plan TreePlan) {
	if plan.Expect <= 0 {
		panic("switchfab: collective plan with empty subtree")
	}
	s.collective().groups[id] = &groupState{plan: plan}
}

// EnableCombining turns on fetch-and-add combining. swID must be unique
// across the fabric's switches (it salts merged request IDs).
func (s *Switch) EnableCombining(swID int, cfg CombineConfig) {
	if cfg.Wait <= 0 {
		cfg.Wait = DefaultCombineConfig().Wait
	}
	if cfg.Fanin < 2 {
		cfg.Fanin = DefaultCombineConfig().Fanin
	}
	cs := s.collective()
	cs.combining = true
	cs.ccfg = cfg
	cs.swID = uint64(swID) & 0x7FFF
}

// CollectiveStats reports the collective-engine counters (zero value
// when the engine was never enabled).
func (s *Switch) CollectiveStats() CollectiveStats {
	if s.coll == nil {
		return CollectiveStats{}
	}
	return s.coll.stats
}

// PendingCollective reports in-flight collective state — parked combine
// windows plus outstanding merge records — for quiesce checks.
func (s *Switch) PendingCollective() int {
	if s.coll == nil {
		return 0
	}
	return s.coll.occupancy + len(s.coll.merges)
}

// intercept examines one arriving packet and consumes it when the
// collective engine owns it. Runs in the input port's intake, before
// the packet enters the forwarding pipeline.
func (cs *collState) intercept(pkt *packet.Packet) bool {
	switch pkt.Type {
	case packet.BarrierArrive, packet.ReduceReq:
		g := cs.groups[uint64(pkt.Addr)]
		if g == nil {
			return false
		}
		cs.arrive(g, pkt)
		return true
	case packet.BarrierRelease, packet.ReduceResult:
		g := cs.groups[uint64(pkt.Addr)]
		if g == nil {
			return false
		}
		cs.replicate(g, pkt)
		return true
	case packet.CombAddReq:
		if !cs.combining {
			return false
		}
		return cs.combine(pkt)
	case packet.CombAddReply:
		if pkt.ReqID&mergedBit == 0 {
			return false
		}
		m := cs.merges[pkt.ReqID]
		if m == nil {
			return false // some other switch's merge: forward normally
		}
		delete(cs.merges, pkt.ReqID)
		cs.decombine(m, pkt)
		return true
	}
	return false
}

// arrive folds one upward arrival into the group accumulator and, when
// the whole subtree has reported, sends a single combined arrival up.
func (cs *collState) arrive(g *groupState, pkt *packet.Packet) {
	cs.stats.Arrivals++
	switch pkt.Type {
	case packet.BarrierArrive:
		g.count += int(pkt.Val) // Val = participants this arrival represents
	case packet.ReduceReq:
		g.count += int(pkt.ReqID) // ReqID = participants, Val = folded operand
		if g.haveAgg {
			g.agg = pkt.Rop.Fold(g.agg, pkt.Val)
		} else {
			g.agg, g.haveAgg = pkt.Val, true
		}
	}
	if g.count < g.plan.Expect {
		return
	}
	up := &packet.Packet{
		Type: pkt.Type,
		Src:  g.plan.Rep,
		Dst:  pkt.Dst,
		Addr: pkt.Addr,
		Val2: pkt.Val2,
		Rop:  pkt.Rop,
		Hops: pkt.Hops + 1,
	}
	if pkt.Type == packet.BarrierArrive {
		up.Val = uint64(g.plan.Expect)
		cs.stats.BarrierRounds++
	} else {
		up.Val = g.agg
		up.ReqID = uint64(g.plan.Expect)
		cs.stats.ReduceRounds++
	}
	g.count, g.agg, g.haveAgg = 0, 0, false
	port := g.plan.UpPort
	cs.sw.eng.Schedule(cs.sw.cfg.RouteDelay, func() { //tgvet:allow eventdrop(emission always fires; SendEv queues internally and never blocks)
		cs.sw.out[port].SendEv(up, nil)
	})
}

// replicate multicasts one downward release/result along the tree: one
// copy per down-leg, re-addressed to the leg's representative (the next
// switch down re-replicates its copy).
func (cs *collState) replicate(g *groupState, pkt *packet.Packet) {
	legs := g.plan.Legs
	cs.stats.Releases++
	cs.stats.FanoutTotal += int64(len(legs))
	if int64(len(legs)) > cs.stats.FanoutMax {
		cs.stats.FanoutMax = int64(len(legs))
	}
	cs.sw.eng.Schedule(cs.sw.cfg.RouteDelay, func() { //tgvet:allow eventdrop(replication always fires; SendEv queues internally and never blocks)
		for _, leg := range legs {
			cp := *pkt
			cp.Dst = leg.Rep
			cp.Hops = pkt.Hops + 1
			cp.Layer = 0 // re-injected below the combining point: fresh escape layer
			cs.sw.out[leg.Port].SendEv(&cp, nil)
		}
	})
}

// combine parks a combinable fetch-and-add in the (output port,
// address) window, opening one with a bounded-wait flush timer if
// needed; a window at fan-in capacity flushes immediately.
func (cs *collState) combine(pkt *packet.Packet) bool {
	port, ok := cs.sw.Route(pkt.Dst)
	if !ok {
		return false // let the normal path count the misroute
	}
	key := combKey{port: port, addr: pkt.Addr}
	w := cs.windows[key]
	if w == nil {
		cs.seq++
		w = &combWindow{gen: cs.seq}
		cs.windows[key] = w
		gen := w.gen
		cs.sw.eng.Schedule(cs.ccfg.Wait, func() { //tgvet:allow eventdrop(flush timer always fires; stale generations are no-ops)
			cs.flush(key, gen)
		})
	}
	w.pkts = append(w.pkts, pkt)
	cs.occupancy++
	if int64(cs.occupancy) > cs.stats.CombineHW {
		cs.stats.CombineHW = int64(cs.occupancy)
	}
	if len(w.pkts) >= cs.ccfg.Fanin {
		cs.flush(key, w.gen)
	}
	return true
}

// flush closes a combine window: a lone request is forwarded untouched;
// two or more merge into one combined request whose reply this switch
// will de-combine. Stale generations (window already flushed by fan-in)
// are no-ops.
func (cs *collState) flush(key combKey, gen uint64) {
	w := cs.windows[key]
	if w == nil || w.gen != gen {
		return
	}
	delete(cs.windows, key)
	cs.occupancy -= len(w.pkts)
	var out *packet.Packet
	if len(w.pkts) == 1 {
		out = w.pkts[0]
		out.Layer = 0 // absorbed and re-injected: fresh escape layer
	} else {
		m, sum := merge(w.pkts)
		cs.seq++
		id := mergedBit | cs.swID<<48 | cs.seq&((1<<48)-1)
		cs.merges[id] = m
		first := w.pkts[0]
		out = &packet.Packet{
			Type:  packet.CombAddReq,
			Src:   first.Src, // reply retraces the first constituent's path
			Dst:   first.Dst,
			Addr:  first.Addr,
			Val:   sum,
			Op:    first.Op,
			ReqID: id,
			Hops:  first.Hops + 1,
		}
		cs.stats.Combined += int64(len(w.pkts))
	}
	port := key.port
	cs.sw.eng.Schedule(cs.sw.cfg.RouteDelay, func() { //tgvet:allow eventdrop(emission always fires; SendEv queues internally and never blocks)
		cs.sw.out[port].SendEv(out, nil)
	})
}

// merge folds a window's fetch-and-adds in arrival order into one merge
// record: each constituent's offset is the sum of the addends that
// joined before it, and sum is the combined addend the home applies
// once.
func merge(pkts []*packet.Packet) (m *mergeRec, sum uint64) {
	m = &mergeRec{cons: make([]constituent, 0, len(pkts))}
	for _, p := range pkts {
		m.cons = append(m.cons, constituent{src: p.Src, reqID: p.ReqID, offset: sum})
		sum += p.Val
	}
	return m, sum
}

// reply is c's answer when the home returned base as the pre-add value
// of the combined addend: exactly what c's fetch-and-add would have
// returned had the constituents run one at a time in merge order
// ("merge then split equals sequential").
func (c constituent) reply(base uint64) uint64 { return base + c.offset }

// decombine splits the reply to a merged request into per-constituent
// replies (see constituent.reply).
func (cs *collState) decombine(m *mergeRec, pkt *packet.Packet) {
	base, home, addr, hops := pkt.Val, pkt.Src, pkt.Addr, pkt.Hops
	cons := m.cons
	cs.sw.eng.Schedule(cs.sw.cfg.RouteDelay, func() { //tgvet:allow eventdrop(de-combine always fires; SendEv queues internally and never blocks)
		for _, c := range cons {
			port, ok := cs.sw.Route(c.src)
			if !ok {
				cs.sw.misroutes++
				continue
			}
			cs.sw.out[port].SendEv(&packet.Packet{
				Type:  packet.CombAddReply,
				Src:   home,
				Dst:   c.src,
				Addr:  addr,
				Val:   c.reply(base),
				ReqID: c.reqID,
				Hops:  hops + 1,
			}, nil)
		}
	})
}
