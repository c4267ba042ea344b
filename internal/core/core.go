// Package core assembles complete Telegraphos clusters: per-node CPU,
// MMU, memory, OS, TurboChannel and HIB, attached to a switch fabric,
// plus the address-space conventions programs use.
//
// Address-space layout (identical on every node, reflective-memory
// style): the shared segment occupies the low half of each node's
// physical memory at identical offsets cluster-wide — a page's copies
// live at the same offset on every node that holds one — and private
// memory occupies the high half. Virtual addresses mirror this:
//
//	SharedVABase  + offset  →  shared data (routed through the HIB)
//	PrivateVABase + offset  →  node-private data (plain local memory)
package core

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/cpu"
	"telegraphos/internal/hib"
	"telegraphos/internal/mem"
	"telegraphos/internal/mmu"
	"telegraphos/internal/osmodel"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/tchan"
	"telegraphos/internal/topology"
)

// Virtual-address region bases.
const (
	// SharedVABase is where the cluster-wide shared segment is mapped.
	SharedVABase addrspace.VAddr = 0x4000_0000
	// PrivateVABase is where node-private memory is mapped.
	PrivateVABase addrspace.VAddr = 0x2_0000_0000
)

// Node bundles one workstation's components.
type Node struct {
	ID  addrspace.NodeID
	Eng *sim.Engine // the shard this node's components run on
	CPU *cpu.CPU    // core 0 (the only core on single-core nodes)
	// CPUs lists every core. All cores share the node's MMU, memory, OS
	// and HIB: they contend for the one TurboChannel bus and the board's
	// finite write queue, and each runs programs under its own
	// Telegraphos context.
	CPUs []*cpu.CPU
	HIB  *hib.HIB
	OS   *osmodel.OS
	MMU  *mmu.MMU
	Mem  *mem.Memory
	Bus  *tchan.Bus
}

// Cluster is a built Telegraphos machine.
type Cluster struct {
	Eng   *sim.Engine // shard 0 (the only shard when cfg.Shards <= 1)
	Group *sim.Group
	Cfg   params.Config
	Net   *topology.Network
	Nodes []*Node

	sharedNext uint64                                 // bump allocator, shared segment
	privNext   []uint64                               // bump allocators, private halves
	sharedHome map[addrspace.PageNum]addrspace.NodeID // home of each shared page
}

// New builds a cluster from cfg. With cfg.Shards > 1 the nodes are
// partitioned into contiguous blocks, one simulation shard each; every
// cross-node effect already travels through links, so the cluster's
// behavior — traces, timings, experiment results — is identical for any
// shard count.
func New(cfg params.Config) *Cluster {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.Nodes {
		shards = cfg.Nodes
	}
	g := sim.NewGroup(cfg.Seed, shards)
	nodeEng := func(i int) *sim.Engine { return g.Shard(i * shards / cfg.Nodes) }
	net := topology.Build(cfg.Fabric(), nodeEng, cfg.Link, cfg.Switch)

	c := &Cluster{
		Eng:        g.Shard(0),
		Group:      g,
		Cfg:        cfg,
		Net:        net,
		privNext:   make([]uint64, cfg.Nodes),
		sharedHome: make(map[addrspace.PageNum]addrspace.NodeID),
	}
	cores := cfg.CoresPerNode
	if cores < 1 {
		cores = 1
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := addrspace.NodeID(i)
		eng := nodeEng(i)
		m := mem.New(cfg.Sizing.MemBytes, cfg.Sizing.PageSize)
		nodeOS := osmodel.New(eng, id, cfg.Timing)
		bus := tchan.New(eng)
		mm := mmu.New(cfg.Sizing.PageSize, cfg.Sizing.TLBEntries, cfg.Timing.TLBMissCost)
		h := hib.New(eng, id, net, bus, m, nodeOS, cfg)
		nd := &Node{ID: id, Eng: eng, HIB: h, OS: nodeOS, MMU: mm, Mem: m, Bus: bus}
		for co := 0; co < cores; co++ {
			pr := cpu.New(eng, id, mm, m, nodeOS, h, cfg.Timing)
			// The runtime allocates one Telegraphos context per core's
			// program (core 0 keeps the historical key).
			key := 0xC0DE0000 + uint64(i) + uint64(co)<<32
			ctxID, err := h.AllocContext(key)
			if err != nil {
				panic(err)
			}
			pr.CtxID, pr.Key = ctxID, key
			nd.CPUs = append(nd.CPUs, pr)
		}
		nd.CPU = nd.CPUs[0]
		c.Nodes = append(c.Nodes, nd)
		c.privNext[i] = uint64(cfg.Sizing.MemBytes) / 2
	}
	return c
}

// N reports the number of nodes.
func (c *Cluster) N() int { return len(c.Nodes) }

// PageSize reports the configured page size.
func (c *Cluster) PageSize() int { return c.Cfg.Sizing.PageSize }

// EngineOf reports the shard engine node i's components run on.
func (c *Cluster) EngineOf(i int) *sim.Engine { return c.Nodes[i].Eng }

// Run drives the simulation to completion.
func (c *Cluster) Run() error { return c.Group.Run() }

// RunUntil drives the simulation to the deadline.
func (c *Cluster) RunUntil(t sim.Time) error { return c.Group.RunUntil(t) }

// Spawn starts prog on node's core 0.
func (c *Cluster) Spawn(node int, name string, prog func(*cpu.Ctx)) *sim.Proc {
	return c.Nodes[node].CPU.Spawn(name, prog)
}

// Cores reports the number of CPU cores per node.
func (c *Cluster) Cores() int { return len(c.Nodes[0].CPUs) }

// SpawnCore starts prog on the given core of node. Cores share the
// node's one HIB, so their remote traffic contends for the TurboChannel
// and the board's write queue.
func (c *Cluster) SpawnCore(node, core int, name string, prog func(*cpu.Ctx)) *sim.Proc {
	return c.Nodes[node].CPUs[core].Spawn(name, prog)
}

// AllocShared reserves bytes (rounded up to whole pages) in the shared
// segment, homed on node home, and maps them read-write on every node.
// It returns the region's virtual base address, valid on all nodes.
func (c *Cluster) AllocShared(home addrspace.NodeID, bytes int) addrspace.VAddr {
	return c.AllocSharedOn(home, bytes, nil)
}

// AllocSharedOn is AllocShared restricted to the listed nodes (nil means
// all). Unlisted nodes get no mapping, so their accesses fault — the
// paper's protection model ("the operating system maps remote pages to
// the page tables of those processes that have the right to access the
// specific remote pages").
func (c *Cluster) AllocSharedOn(home addrspace.NodeID, bytes int, nodes []int) addrspace.VAddr {
	ps := c.PageSize()
	pages := (bytes + ps - 1) / ps
	base := c.sharedNext
	c.sharedNext += uint64(pages * ps)
	if c.sharedNext > uint64(c.Cfg.Sizing.MemBytes)/2 {
		panic("core: shared segment exhausted")
	}
	va := SharedVABase + addrspace.VAddr(base)
	for pg := 0; pg < pages; pg++ {
		off := base + uint64(pg*ps)
		c.sharedHome[addrspace.PageOf(off, ps)] = home
		if nodes == nil {
			for i := range c.Nodes {
				c.mapSharedPage(i, off, home)
			}
		} else {
			for _, i := range nodes {
				c.mapSharedPage(i, off, home)
			}
		}
	}
	return va
}

// mapSharedPage maps the shared page at offset off into node i's address
// space, pointing at the home node (which may be i itself).
func (c *Cluster) mapSharedPage(i int, off uint64, home addrspace.NodeID) {
	va := SharedVABase + addrspace.VAddr(off)
	frame := addrspace.RemotePA(home, off)
	c.Nodes[i].MMU.AS.Map(va, frame, mmu.PermRW)
}

// RemapShared repoints node i's mapping of the shared page containing
// va: target is the node whose copy the accesses should reach (node i
// itself for a local replica). The TLB entry is invalidated.
func (c *Cluster) RemapShared(i int, va addrspace.VAddr, target addrspace.NodeID) {
	ps := uint64(c.PageSize())
	off := uint64(va.Base()-SharedVABase) / ps * ps
	c.Nodes[i].MMU.AS.Map(SharedVABase+addrspace.VAddr(off), addrspace.RemotePA(target, off), mmu.PermRW)
	c.Nodes[i].MMU.InvalidatePage(va)
}

// SharedGAddr reports the global (home) address of shared virtual
// address va.
func (c *Cluster) SharedGAddr(va addrspace.VAddr) addrspace.GAddr {
	off := uint64(va.Base() - SharedVABase)
	home, ok := c.sharedHome[addrspace.PageOf(off, c.PageSize())]
	if !ok {
		panic(fmt.Sprintf("core: %#x is not an allocated shared address", uint64(va)))
	}
	return addrspace.NewGAddr(home, off)
}

// SharedOffset reports the segment offset of shared virtual address va.
func (c *Cluster) SharedOffset(va addrspace.VAddr) uint64 {
	return uint64(va.Base() - SharedVABase)
}

// SharedVA reports the shared virtual address for a segment offset.
func SharedVA(off uint64) addrspace.VAddr { return SharedVABase + addrspace.VAddr(off) }

// HomeOf reports the home node of the shared page at segment offset off.
func (c *Cluster) HomeOf(off uint64) addrspace.NodeID {
	return c.sharedHome[addrspace.PageOf(off, c.PageSize())]
}

// AllocPrivate reserves bytes (rounded up to whole pages) of node i's
// private memory and maps them locally read-write. It returns the
// region's virtual base address, valid on node i only.
func (c *Cluster) AllocPrivate(i int, bytes int) addrspace.VAddr {
	ps := c.PageSize()
	pages := (bytes + ps - 1) / ps
	base := c.privNext[i]
	c.privNext[i] += uint64(pages * ps)
	if c.privNext[i] > uint64(c.Cfg.Sizing.MemBytes) {
		panic("core: private memory exhausted")
	}
	va := PrivateVABase + addrspace.VAddr(base)
	for pg := 0; pg < pages; pg++ {
		off := base + uint64(pg*ps)
		c.Nodes[i].MMU.AS.Map(PrivateVABase+addrspace.VAddr(off), addrspace.LocalPA(off), mmu.PermRW)
	}
	return va
}
