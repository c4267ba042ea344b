package coherence

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/hib"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
)

// Galactica is the ring-based update-coherence baseline of §2.4
// (Galactica Net [15]): every node sharing a page sits on a ring; a
// writer applies its update locally and circulates it around the ring,
// each node applying it in arrival order; the update is removed when it
// returns to its origin. When two nodes write the same word at about the
// same time, both eventually notice (each sees the other's circulating
// update while its own is still in flight) and the lower-priority writer
// backs off, re-issuing the winner's value so all copies converge.
//
// Convergence holds, but a third node can observe the sequence
// "1, 2, 1" — a history no memory-consistency model admits. Experiment
// E8 reproduces that observation and shows the Telegraphos owner-based
// protocol excludes it.
type Galactica struct {
	c    *core.Cluster
	mgrs []*GalacticaMgr
}

// NewGalactica attaches the ring protocol to every node of c.
func NewGalactica(c *core.Cluster) *Galactica {
	g := &Galactica{c: c}
	for _, n := range c.Nodes {
		m := &GalacticaMgr{
			node:     n.ID,
			eng:      n.Eng,
			h:        n.HIB,
			pages:    make(map[addrspace.PageNum]*gpage),
			pending:  make(map[uint64]bool),
			Counters: stats.NewCounterSet(),
			log:      make(map[uint64][]uint64),
		}
		n.HIB.SetCoherence(m)
		g.mgrs = append(g.mgrs, m)
	}
	return g
}

// Mgr returns node i's ring manager.
func (g *Galactica) Mgr(i int) *GalacticaMgr { return g.mgrs[i] }

// ShareRing replicates the page containing va on every node of ring (in
// ring order); each node's successor is the next ring element.
func (g *Galactica) ShareRing(va addrspace.VAddr, ring []int) {
	ps := g.c.PageSize()
	off := g.c.SharedOffset(va) / uint64(ps) * uint64(ps)
	pn := addrspace.PageOf(off, ps)
	home := g.c.HomeOf(off)
	content := g.c.Nodes[home].Mem.ReadPage(pn)
	for idx, n := range ring {
		next := addrspace.NodeID(ring[(idx+1)%len(ring)])
		g.c.Nodes[n].Mem.WritePage(pn, content)
		g.c.RemapShared(n, va, addrspace.NodeID(n))
		g.mgrs[n].pages[pn] = &gpage{next: next}
	}
}

// gpage is one node's ring state for a page.
type gpage struct {
	next addrspace.NodeID
}

// GalacticaMgr is one node's ring protocol engine.
type GalacticaMgr struct {
	node    addrspace.NodeID
	eng     *sim.Engine // the node's engine: delays on the receive side
	h       *hib.HIB
	pages   map[addrspace.PageNum]*gpage
	pending map[uint64]bool // offsets with own update in flight

	// Counters is protocol telemetry.
	Counters *stats.CounterSet

	log     map[uint64][]uint64
	watched map[uint64]bool
}

var _ hib.Coherence = (*GalacticaMgr)(nil)

// Watch starts recording every value applied at offset on this node.
func (m *GalacticaMgr) Watch(offset uint64) {
	if m.watched == nil {
		m.watched = make(map[uint64]bool)
	}
	m.watched[offset] = true
}

// AppliedValues reports the recorded value sequence for offset.
func (m *GalacticaMgr) AppliedValues(offset uint64) []uint64 {
	return append([]uint64(nil), m.log[offset]...)
}

func (m *GalacticaMgr) record(offset, v uint64) {
	if m.watched != nil && m.watched[offset] {
		m.log[offset] = append(m.log[offset], v)
	}
}

func (m *GalacticaMgr) pageOf(offset uint64) *gpage {
	return m.pages[addrspace.PageOf(offset, m.h.Mem().PageSize())]
}

// corrective updates are flagged in Val2 so they do not trigger further
// back-offs.
const galCorrective = 1

// LocalSharedWrite applies the store locally and launches it around the
// ring.
func (m *GalacticaMgr) LocalSharedWrite(p *sim.Proc, offset uint64, v uint64) bool {
	st := m.pageOf(offset)
	if st == nil {
		return false
	}
	m.h.Mem().WriteWord(offset, v)
	m.record(offset, v)
	m.pending[offset] = true
	m.Counters.Inc("ring-write")
	m.h.Post(&packet.Packet{
		Type:   packet.RingUpdate,
		Dst:    st.next,
		Addr:   addrspace.NewGAddr(st.next, offset),
		Val:    v,
		Origin: m.node,
	})
	return true
}

// LocalSharedRead lets reads proceed on the local copy.
func (m *GalacticaMgr) LocalSharedRead(p *sim.Proc, offset uint64) (uint64, bool) {
	return 0, false
}

// IncomingPacket processes a circulating ring update.
func (m *GalacticaMgr) IncomingPacket(pkt *packet.Packet, done func()) bool {
	if pkt.Type != packet.RingUpdate {
		return false
	}
	offset := pkt.Addr.Offset()
	st := m.pageOf(offset)
	if st == nil {
		m.Counters.Inc("ring-misdelivered")
		done()
		return true
	}
	if pkt.Origin == m.node {
		// Completed the circle: remove it.
		m.pending[offset] = false
		m.Counters.Inc("ring-completed")
		done()
		return true
	}
	// Apply in arrival order, after the MPM write time.
	//tgvet:allow eventdrop(MPM write delay always fires; the receive pipeline waits on done)
	m.eng.Schedule(m.h.Timing().MPMWrite, func() {
		m.applyRing(st, pkt, offset)
		done()
	})
	return true
}

// applyRing applies a circulating update at offset, backs off if it
// beats our own update in flight, and forwards it around the ring.
func (m *GalacticaMgr) applyRing(st *gpage, pkt *packet.Packet, offset uint64) {
	m.h.Mem().WriteWord(offset, pkt.Val)
	m.record(offset, pkt.Val)
	m.Counters.Inc("ring-applied")

	// Conflict: our own (real) update is in flight and the arriving
	// update has higher priority (lower node id) — back off and send a
	// corrective update restoring the winner's value to the nodes our
	// own update already reached.
	if pkt.Val2 != galCorrective && m.pending[offset] && pkt.Origin < m.node {
		m.pending[offset] = false
		m.Counters.Inc("ring-backoff")
		m.h.Post(&packet.Packet{
			Type:   packet.RingUpdate,
			Dst:    st.next,
			Addr:   addrspace.NewGAddr(st.next, offset),
			Val:    pkt.Val,
			Val2:   galCorrective,
			Origin: m.node,
		})
	}

	// Forward around the ring.
	fwd := *pkt
	fwd.Dst = st.next
	fwd.Addr = addrspace.NewGAddr(st.next, offset)
	m.h.Post(&fwd)
}
