// Package coherence implements the memory-coherence protocols of the
// paper's §2.3 and §2.4 on top of the HIB:
//
//   - Update: the paper's novel owner-serialized, counter-based
//     update protocol (§2.3.1–§2.3.4), with three counter modes —
//     disabled (Telegraphos I), a small CAM cache (§2.3.4), and
//     idealized per-word counters (§2.3.3);
//   - Galactica: the ring-based update baseline of §2.4, which can
//     expose the "1, 2, 1" anomaly the Telegraphos protocol excludes;
//   - Invalidate: a page-granularity invalidate baseline for the
//     update-vs-invalidate comparison of §2.3.6.
package coherence

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/hib"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
	"telegraphos/internal/trace"
)

// CounterMode selects the pending-write counter implementation.
type CounterMode int

// The three counter configurations.
const (
	// CountersOff is Telegraphos I: no pending-write counters; every
	// reflected write is applied, so chaotic (unsynchronized) concurrent
	// writers may observe the §2.3.2 anomalies.
	CountersOff CounterMode = iota
	// CountersCached uses the §2.3.4 CAM of Sizing.CounterCacheSize
	// entries; allocation stalls when the CAM is full.
	CountersCached
	// CountersInfinite is the idealized §2.3.3 design with a counter for
	// every memory word.
	CountersInfinite
)

// String names the mode.
func (m CounterMode) String() string {
	switch m {
	case CountersOff:
		return "off"
	case CountersCached:
		return "cached"
	default:
		return "infinite"
	}
}

// Update is the cluster-wide owner-based update protocol.
type Update struct {
	c    *core.Cluster
	mode CounterMode
	mgrs []*UpdateMgr

	// breakVictim, when set, deliberately breaks the protocol (see
	// BreakSkipReflectTo). Test-only.
	breakVictim *addrspace.NodeID
}

// BreakSkipReflectTo deliberately breaks the protocol for checker
// validation: every manager silently skips reflections destined for
// victim (other than the decrement reflections of victim's own writes,
// which must still flow or the counters would leak). Victim's replica
// stops receiving foreign updates, so under concurrent writers its copy
// diverges — exactly the failure the simtest invariant checkers must
// catch. Never use outside tests.
func (u *Update) BreakSkipReflectTo(victim addrspace.NodeID) { u.breakVictim = &victim }

// NewUpdate attaches the update protocol to every node of c.
func NewUpdate(c *core.Cluster, mode CounterMode) *Update {
	u := &Update{c: c, mode: mode}
	for _, n := range c.Nodes {
		capacity := 0
		if mode == CountersCached {
			capacity = c.Cfg.Sizing.CounterCacheSize
		}
		m := &UpdateMgr{
			u:        u,
			node:     n.ID,
			eng:      n.Eng,
			h:        n.HIB,
			pages:    make(map[addrspace.PageNum]*upage),
			cache:    NewCounterCache(n.Eng, capacity),
			Counters: stats.NewCounterSet(),
			log:      make(map[uint64][]uint64),
		}
		n.HIB.SetCoherence(m)
		u.mgrs = append(u.mgrs, m)
	}
	return u
}

// Mode reports the counter mode.
func (u *Update) Mode() CounterMode { return u.mode }

// Mgr returns node i's protocol manager (telemetry, logs).
func (u *Update) Mgr(i int) *UpdateMgr { return u.mgrs[i] }

// SharePage replicates the shared page containing va: owner holds the
// serializing copy, every node in copies (which should include the owner)
// holds a local replica, and all other nodes are remapped to access the
// owner's copy directly. Initial content is propagated from the page's
// allocation home.
func (u *Update) SharePage(va addrspace.VAddr, owner addrspace.NodeID, copies []int) {
	ps := u.c.PageSize()
	off := u.c.SharedOffset(va) / uint64(ps) * uint64(ps)
	pn := addrspace.PageOf(off, ps)
	home := u.c.HomeOf(off)

	copySet := make(map[int]bool, len(copies))
	ids := make([]addrspace.NodeID, 0, len(copies))
	for _, n := range copies {
		copySet[n] = true
		ids = append(ids, addrspace.NodeID(n))
	}
	if !copySet[int(owner)] {
		panic("coherence: the owner must hold a copy of the page")
	}

	content := u.c.Nodes[home].Mem.ReadPage(pn)
	for i, node := range u.c.Nodes {
		st := &upage{owner: owner}
		if copySet[i] {
			st.hasCopy = true
			st.copies = ids
			node.Mem.WritePage(pn, content)
			u.c.RemapShared(i, va, node.ID) // access the local replica
		} else {
			u.c.RemapShared(i, va, owner) // access the owner's copy
		}
		u.mgrs[i].pages[pn] = st
	}
}

// upage is one node's view of a replicated page.
type upage struct {
	owner   addrspace.NodeID
	hasCopy bool
	copies  []addrspace.NodeID // all replica holders (meaningful at owner)
}

// UpdateMgr is one node's protocol engine; it implements hib.Coherence.
type UpdateMgr struct {
	u     *Update
	node  addrspace.NodeID
	eng   *sim.Engine // the node's engine: delays on the receive side
	h     *hib.HIB
	pages map[addrspace.PageNum]*upage
	cache *CounterCache

	// Counters is protocol telemetry.
	Counters *stats.CounterSet

	// log records the sequence of values applied to watched offsets
	// (observer support for the consistency experiments).
	log     map[uint64][]uint64
	watched map[uint64]bool
}

var _ hib.Coherence = (*UpdateMgr)(nil)

// Cache exposes the pending-write counter cache (telemetry).
func (m *UpdateMgr) Cache() *CounterCache { return m.cache }

// Watch starts recording every value applied at offset on this node.
func (m *UpdateMgr) Watch(offset uint64) {
	if m.watched == nil {
		m.watched = make(map[uint64]bool)
	}
	m.watched[offset] = true
}

// AppliedValues reports the recorded value sequence for offset.
func (m *UpdateMgr) AppliedValues(offset uint64) []uint64 {
	return append([]uint64(nil), m.log[offset]...)
}

func (m *UpdateMgr) record(offset, v uint64) {
	if m.watched != nil && m.watched[offset] {
		m.log[offset] = append(m.log[offset], v)
	}
}

func (m *UpdateMgr) pageOf(offset uint64) *upage {
	return m.pages[addrspace.PageOf(offset, m.h.Mem().PageSize())]
}

// LocalSharedWrite implements §2.3.3 rule 1 for a store by this node's
// processor to a replicated page: (i) update the local copy, (ii)
// increment the pending-write counter, (iii) send the new value to the
// owner for multicasting. The owner's own stores skip the counter and
// reflect immediately — the owner's arrival order *is* the global order.
func (m *UpdateMgr) LocalSharedWrite(p *sim.Proc, offset uint64, v uint64) bool {
	st := m.pageOf(offset)
	if st == nil || !st.hasCopy {
		return false
	}
	m.h.Mem().WriteWord(offset, v)
	m.record(offset, v)
	if st.owner == m.node {
		m.Counters.Inc("owner-write")
		// The owner's own store is its serialization point.
		m.h.Emit(trace.EvUpdateSerialize, offset, v, uint64(m.node))
		m.reflect(st, offset, v, m.node)
		return true
	}
	m.Counters.Inc("copy-write")
	if m.u.mode != CountersOff {
		m.cache.Inc(p, offset)
		p.Sleep(m.h.Timing().CounterOverhead)
	}
	m.h.AddOutstanding(1)
	m.h.Post(&packet.Packet{
		Type:   packet.UpdateFwd,
		Dst:    st.owner,
		Addr:   addrspace.NewGAddr(st.owner, offset),
		Val:    v,
		Origin: m.node,
	})
	return true
}

// LocalSharedRead implements rule 4: reads proceed normally on the local
// copy, ignoring the counters.
func (m *UpdateMgr) LocalSharedRead(p *sim.Proc, offset uint64) (uint64, bool) {
	return 0, false
}

// reflect multicasts an update, now serialized at the owner, to every
// replica except the owner itself (§2.3.1 "reflected writes"). The owner
// tracks each reflection as an outstanding operation; replicas
// acknowledge, so the owner's FENCE covers global visibility.
func (m *UpdateMgr) reflect(st *upage, offset uint64, v uint64, origin addrspace.NodeID) {
	for _, dst := range st.copies {
		if dst == m.node {
			continue
		}
		if m.u.breakVictim != nil && dst == *m.u.breakVictim && origin != dst {
			continue // deliberately broken variant (BreakSkipReflectTo)
		}
		m.Counters.Inc("reflect")
		m.h.AddOutstanding(1)
		m.h.Post(&packet.Packet{
			Type:   packet.ReflectedWrite,
			Dst:    dst,
			Addr:   addrspace.NewGAddr(dst, offset),
			Val:    v,
			Origin: origin,
		})
	}
}

// IncomingPacket handles protocol traffic.
func (m *UpdateMgr) IncomingPacket(pkt *packet.Packet, done func()) bool {
	switch pkt.Type {
	case packet.UpdateFwd:
		return m.ownerSerialize(pkt, false, done)
	case packet.WriteReq:
		// A write from a node with no replica, arriving at the owner of a
		// replicated page, must be serialized and reflected like any
		// other update; the writer still gets its WriteAck.
		st := m.pageOf(pkt.Addr.Offset())
		if st == nil || st.owner != m.node || !st.hasCopy {
			return false
		}
		pkt.Origin = pkt.Src
		return m.ownerSerialize(pkt, true, done)
	case packet.ReflectedWrite:
		return m.applyReflected(pkt, done)
	default:
		return false
	}
}

// ownerSerialize applies an update at the owner, after the MPM write
// time, multicasts the reflections and calls done. ack selects whether
// the originating writer needs an explicit WriteAck (it does when it
// holds no replica and thus receives no reflection).
func (m *UpdateMgr) ownerSerialize(pkt *packet.Packet, ack bool, done func()) bool {
	offset := pkt.Addr.Offset()
	st := m.pageOf(offset)
	if st == nil || st.owner != m.node {
		m.Counters.Inc("misdelivered-update")
		return false
	}
	origin := pkt.Origin
	//tgvet:allow eventdrop(MPM write delay always fires; the receive pipeline waits on done)
	m.eng.Schedule(m.h.Timing().MPMWrite, func() {
		m.h.Mem().WriteWord(offset, pkt.Val)
		m.record(offset, pkt.Val)
		m.Counters.Inc("owner-serialized")
		m.h.Emit(trace.EvUpdateSerialize, offset, pkt.Val, uint64(origin))
		m.reflect(st, offset, pkt.Val, origin)
		if ack {
			m.h.Post(&packet.Packet{Type: packet.WriteAck, Dst: pkt.Src})
		}
		done()
	})
	return true
}

// debugReflect, when set by tests, observes every reflection decision.
var debugReflect func(m *UpdateMgr, pkt *packet.Packet, own bool)

// applyReflected implements rules 2 and 3 at a replica: a reflection of
// our own write decrements the counter and is ignored; any other
// reflection is ignored while our counter is non-zero, applied otherwise.
// With counters off (Telegraphos I) every reflection is applied — the
// configuration whose anomalies experiment E5 demonstrates.
func (m *UpdateMgr) applyReflected(pkt *packet.Packet, done func()) bool {
	offset := pkt.Addr.Offset()
	st := m.pageOf(offset)
	if st == nil || !st.hasCopy {
		m.Counters.Inc("misdelivered-reflect")
		return false
	}
	// Charge the board's service cost (the counter read-modify-write
	// plus the conditional memory write) *before* deciding: in hardware
	// the counter check and the write are a single atomic memory-side
	// operation, so no local store may interleave between them. Deciding
	// before the delays would reopen exactly the §2.3.2 overwrite window
	// the counters exist to close — a bug the joint consistency checker
	// caught in an earlier version of this model.
	write := func() {
		//tgvet:allow eventdrop(MPM write delay always fires; the receive pipeline waits on done)
		m.eng.Schedule(m.h.Timing().MPMWrite, func() { m.decideReflected(pkt, offset); done() })
	}
	if m.u.mode == CountersOff {
		write()
		return true
	}
	m.eng.Schedule(m.h.Timing().CounterOverhead, write) //tgvet:allow eventdrop(counter update delay always fires; the receive pipeline waits on done)
	return true
}

// decideReflected applies or ignores a reflection once its service
// delays have passed, and acknowledges it.
func (m *UpdateMgr) decideReflected(pkt *packet.Packet, offset uint64) {
	own := pkt.Origin == m.node
	if debugReflect != nil {
		debugReflect(m, pkt, own)
	}
	switch {
	case m.u.mode == CountersOff:
		// Telegraphos I: apply unconditionally.
		m.h.Mem().WriteWord(offset, pkt.Val)
		m.record(offset, pkt.Val)
		m.Counters.Inc("reflect-applied")
		m.h.Emit(trace.EvReflectApply, offset, pkt.Val, uint64(pkt.Origin))
	case own:
		// Rule 2: our own write coming back — decrement, ignore.
		m.cache.Dec(offset)
		m.Counters.Inc("reflect-own-ignored")
	case m.cache.Pending(offset) > 0:
		// Rule 3: older than our pending write — ignore.
		m.Counters.Inc("reflect-stale-ignored")
	default:
		m.h.Mem().WriteWord(offset, pkt.Val)
		m.record(offset, pkt.Val)
		m.Counters.Inc("reflect-applied")
		m.h.Emit(trace.EvReflectApply, offset, pkt.Val, uint64(pkt.Origin))
	}
	if own {
		// Our forwarded update has completed its round trip.
		m.h.AddOutstanding(-1)
	}
	// Acknowledge the owner's reflection so its FENCE covers delivery.
	m.h.Post(&packet.Packet{Type: packet.WriteAck, Dst: pkt.Src})
}
