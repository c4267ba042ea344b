package coherence

import (
	"slices"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/hib"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
)

// Invalidate is the page-granularity invalidate-based coherence baseline
// used by the §2.3.6 update-vs-invalidate comparison. A hardware
// directory (one entry per shared page, serialized by a directory lock)
// tracks which nodes hold valid copies:
//
//   - a read of an invalid page fetches it from the last writer with a
//     hardware page copy (the HIB's remote-copy engine) and joins the
//     copy set;
//   - a write from a node without exclusive access invalidates every
//     other copy (InvReq/InvAck) and proceeds locally.
//
// Producer/consumer sharing ping-pongs whole pages under this protocol,
// while migratory sharing transfers each page once — the crossover E12
// measures.
type Invalidate struct {
	c    *core.Cluster
	mgrs []*InvalidateMgr
	dirs map[addrspace.PageNum]*invDir
}

// invDir is the directory entry for one shared page.
type invDir struct {
	mu      *sim.Mutex
	holders map[addrspace.NodeID]bool // nodes with a valid copy
	last    addrspace.NodeID          // node with the authoritative copy
}

// NewInvalidate attaches the invalidate protocol to every node of c.
// The protocol models the directory as centralized hardware state that
// every node manipulates directly (a deliberate shortcut — it is only a
// baseline), so it requires a single-shard cluster.
func NewInvalidate(c *core.Cluster) *Invalidate {
	if c.Group.Shards() > 1 {
		panic("coherence: the invalidate baseline's centralized directory requires Shards <= 1")
	}
	iv := &Invalidate{c: c, dirs: make(map[addrspace.PageNum]*invDir)}
	for _, n := range c.Nodes {
		m := &InvalidateMgr{
			iv:       iv,
			node:     n.ID,
			h:        n.HIB,
			valid:    make(map[addrspace.PageNum]bool),
			tracked:  make(map[addrspace.PageNum]bool),
			Counters: stats.NewCounterSet(),
		}
		n.HIB.SetCoherence(m)
		iv.mgrs = append(iv.mgrs, m)
	}
	return iv
}

// Mgr returns node i's protocol manager.
func (iv *Invalidate) Mgr(i int) *InvalidateMgr { return iv.mgrs[i] }

// SharePage places the page containing va under invalidate coherence.
// The allocation home starts with the only valid copy; every node maps
// the page locally and faults into the protocol on first access.
func (iv *Invalidate) SharePage(va addrspace.VAddr) {
	ps := iv.c.PageSize()
	off := iv.c.SharedOffset(va) / uint64(ps) * uint64(ps)
	pn := addrspace.PageOf(off, ps)
	home := iv.c.HomeOf(off)
	iv.dirs[pn] = &invDir{
		mu:      sim.NewMutex(iv.c.Eng),
		holders: map[addrspace.NodeID]bool{home: true},
		last:    home,
	}
	for i, node := range iv.c.Nodes {
		iv.c.RemapShared(i, va, node.ID) // every access is "local"; the manager gates it
		iv.mgrs[i].tracked[pn] = true
		if node.ID == home {
			iv.mgrs[i].valid[pn] = true
		}
	}
}

// InvalidateMgr is one node's invalidate protocol engine.
type InvalidateMgr struct {
	iv      *Invalidate
	node    addrspace.NodeID
	h       *hib.HIB
	valid   map[addrspace.PageNum]bool
	tracked map[addrspace.PageNum]bool

	// Counters is protocol telemetry.
	Counters *stats.CounterSet
}

var _ hib.Coherence = (*InvalidateMgr)(nil)

func (m *InvalidateMgr) page(offset uint64) (addrspace.PageNum, *invDir) {
	pn := addrspace.PageOf(offset, m.h.Mem().PageSize())
	if !m.tracked[pn] {
		return pn, nil
	}
	return pn, m.iv.dirs[pn]
}

// LocalSharedRead gates loads: an invalid page is fetched (whole-page
// hardware copy from the authoritative holder) before the read proceeds.
func (m *InvalidateMgr) LocalSharedRead(p *sim.Proc, offset uint64) (uint64, bool) {
	pn, dir := m.page(offset)
	if dir == nil {
		return 0, false
	}
	if !m.valid[pn] {
		m.fetchPage(p, pn, dir, false)
	}
	return 0, false // proceed with the plain local read
}

// LocalSharedWrite gates stores: the writer must hold the only valid
// copy; everyone else is invalidated first.
func (m *InvalidateMgr) LocalSharedWrite(p *sim.Proc, offset uint64, v uint64) bool {
	pn, dir := m.page(offset)
	if dir == nil {
		return false
	}
	exclusive := m.valid[pn] && len(dir.holders) == 1 && dir.holders[m.node]
	if !exclusive {
		m.acquireExclusive(p, pn, dir)
	}
	m.h.Mem().WriteWord(offset, v)
	return true
}

// fetchPage joins the copy set, copying the page from the authoritative
// holder with the HIB's remote-copy engine.
func (m *InvalidateMgr) fetchPage(p *sim.Proc, pn addrspace.PageNum, dir *invDir, forWrite bool) {
	dir.mu.Lock(p)
	defer dir.mu.Unlock()
	if m.valid[pn] {
		return // raced: someone fetched for us meanwhile
	}
	m.Counters.Inc("page-fetch")
	src := dir.last
	base := addrspace.PageBase(pn, m.h.Mem().PageSize())
	words := m.h.Mem().WordsPerPage()
	m.h.AddOutstanding(1)
	m.h.Post(&packet.Packet{
		Type:   packet.CopyReq,
		Dst:    src,
		Addr:   addrspace.NewGAddr(src, base),
		Addr2:  addrspace.NewGAddr(m.node, base),
		Origin: m.node,
		Len:    uint32(words),
	})
	m.h.WaitOutstanding(p)
	m.valid[pn] = true
	dir.holders[m.node] = true
}

// acquireExclusive invalidates every other copy and takes ownership.
func (m *InvalidateMgr) acquireExclusive(p *sim.Proc, pn addrspace.PageNum, dir *invDir) {
	if !m.valid[pn] {
		m.fetchPage(p, pn, dir, true)
	}
	dir.mu.Lock(p)
	defer dir.mu.Unlock()
	m.Counters.Inc("invalidate-round")
	base := addrspace.PageBase(pn, m.h.Mem().PageSize())
	// Sort holders so packet emission order (and thus the simulation) is
	// deterministic.
	holders := make([]addrspace.NodeID, 0, len(dir.holders))
	//tgvet:allow maporder(keys are sorted by slices.Sort below before any packet is emitted)
	for h := range dir.holders {
		holders = append(holders, h)
	}
	slices.Sort(holders)
	for _, holder := range holders {
		if holder == m.node {
			continue
		}
		m.Counters.Inc("invalidations")
		m.h.AddOutstanding(1)
		m.h.Post(&packet.Packet{
			Type: packet.InvReq,
			Dst:  holder,
			Addr: addrspace.NewGAddr(holder, base),
		})
	}
	m.h.WaitOutstanding(p) // wait for all InvAcks
	dir.holders = map[addrspace.NodeID]bool{m.node: true}
	dir.last = m.node
	m.valid[pn] = true
}

// IncomingPacket handles invalidation traffic; neither packet waits on
// memory, so a claimed one is serviced at once.
func (m *InvalidateMgr) IncomingPacket(pkt *packet.Packet, done func()) bool {
	switch pkt.Type {
	case packet.InvReq:
		pn := addrspace.PageOf(pkt.Addr.Offset(), m.h.Mem().PageSize())
		m.valid[pn] = false
		m.Counters.Inc("invalidated")
		m.h.Post(&packet.Packet{Type: packet.InvAck, Dst: pkt.Src})
	case packet.InvAck:
		m.h.AddOutstanding(-1)
	default:
		return false
	}
	done()
	return true
}
