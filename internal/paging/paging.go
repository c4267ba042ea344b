// Package paging implements the remote-memory paging study of §2.2.6's
// citation [21] ("Using Remote Memory to avoid Disk Thrashing"): a
// process whose working set exceeds local memory pages either to disk or
// to the idle memory of another workstation, reached through the
// Telegraphos remote-copy engine. Experiment E10 compares the two
// backends.
package paging

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// Backend selects where evicted pages live.
type Backend int

// The two paging backends.
const (
	// Disk pages to the local disk (seek-dominated).
	Disk Backend = iota
	// RemoteMemory pages to a memory server node over Telegraphos.
	RemoteMemory
)

// Ref is one page reference of the workload.
type Ref struct {
	Page  int
	Write bool
}

// Config parameterizes a paging run.
type Config struct {
	// LocalFrames is the number of page frames of local memory.
	LocalFrames int
	// Backend is where non-resident pages live.
	Backend Backend
	// Server is the memory-server node (RemoteMemory backend).
	Server addrspace.NodeID
}

// Result summarizes a run.
type Result struct {
	Elapsed    sim.Time
	Hits       int
	Faults     int
	WriteBacks int
}

// GenRefs generates n page references over `pages` distinct pages with
// temporal locality: with probability locality the next reference stays
// within a small hot window that drifts across the address space.
// The reference string is a pure function of seed: it draws from a
// labeled sim.RNG stream, never from global math/rand, so E10 inputs
// are bit-identical across platforms and shard layouts.
func GenRefs(seed int64, n, pages int, locality float64, writeFrac float64) []Ref {
	return GenRefsFrom(sim.ForkRNG(uint64(seed), "paging/refs"), n, pages, locality, writeFrac)
}

// GenRefsFrom is GenRefs drawing from an injected stream.
func GenRefsFrom(rng *sim.RNG, n, pages int, locality float64, writeFrac float64) []Ref {
	refs := make([]Ref, n)
	hot := 0
	window := max(pages/8, 1)
	for i := range refs {
		var pg int
		if rng.Float64() < locality {
			pg = (hot + rng.Intn(window)) % pages
		} else {
			pg = rng.Intn(pages)
			hot = pg
		}
		refs[i] = Ref{Page: pg, Write: rng.Float64() < writeFrac}
	}
	return refs
}

// Run replays refs on node `node` of cluster c under cfg and reports the
// outcome. The process pays a local access per hit; a miss pays the OS
// fault path plus the backend transfer (and a write-back when the
// evicted page is dirty). For the RemoteMemory backend the transfers are
// real Telegraphos remote-copy traffic through the fabric.
func Run(c *core.Cluster, node int, cfg Config, refs []Ref) (Result, error) {
	if cfg.LocalFrames < 1 {
		return Result{}, fmt.Errorf("paging: need at least one local frame")
	}
	ps := c.PageSize()
	maxPage := 0
	for _, r := range refs {
		maxPage = max(maxPage, r.Page)
	}
	if (maxPage+1)*ps > c.Cfg.Sizing.MemBytes/2 {
		return Result{}, fmt.Errorf("paging: %d pages exceed the server's shared segment", maxPage+1)
	}

	var res Result
	n := c.Nodes[node]
	t := n.OS.Timing()
	words := ps / addrspace.WordSize
	h := n.HIB

	// LRU frame table: resident pages in recency order (front = LRU).
	resident := make(map[int]bool)
	dirty := make(map[int]bool)
	var lru []int
	touch := func(pg int) {
		for i, v := range lru {
			if v == pg {
				lru = append(lru[:i], lru[i+1:]...)
				break
			}
		}
		lru = append(lru, pg)
	}

	transfer := func(p *sim.Proc, pg int, toServer bool) {
		switch cfg.Backend {
		case Disk:
			p.Sleep(t.DiskLatency + sim.Time(words)*t.DiskPerWord)
		case RemoteMemory:
			local := addrspace.NewGAddr(n.ID, uint64(pg*ps))
			remote := addrspace.NewGAddr(cfg.Server, uint64(pg*ps))
			src, dst := remote, local
			if toServer {
				src, dst = local, remote
			}
			h.AddOutstanding(1)
			pkt := &packet.Packet{
				Type:   packet.CopyReq,
				Dst:    src.Node(),
				Addr:   src,
				Addr2:  dst,
				Origin: n.ID,
				Len:    uint32(words),
			}
			h.Post(pkt)
			h.Fence(p)
		}
	}

	eng := c.EngineOf(node)
	start := eng.Now()
	eng.Spawn(fmt.Sprintf("pager.%d", node), func(p *sim.Proc) {
		for _, r := range refs {
			if resident[r.Page] {
				res.Hits++
				p.Sleep(t.LocalMemRead)
				touch(r.Page)
				if r.Write {
					dirty[r.Page] = true
				}
				continue
			}
			res.Faults++
			p.Sleep(t.Trap + t.FaultService)
			if len(lru) >= cfg.LocalFrames {
				victim := lru[0]
				lru = lru[1:]
				delete(resident, victim)
				if dirty[victim] {
					res.WriteBacks++
					transfer(p, victim, true)
					delete(dirty, victim)
				}
			}
			transfer(p, r.Page, false)
			resident[r.Page] = true
			touch(r.Page)
			if r.Write {
				dirty[r.Page] = true
			}
		}
	})
	if err := c.Run(); err != nil {
		return res, err
	}
	res.Elapsed = eng.Now() - start
	return res, nil
}
