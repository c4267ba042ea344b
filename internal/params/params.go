// Package params centralizes the timing and sizing parameters of the
// simulated Telegraphos machine. All magnitudes are mid-1990s hardware
// numbers, calibrated so the two anchor measurements of the paper's §3.2
// land on the published values (see the Budget comments below):
//
//	remote write (long stream):  0.70 µs/op   — network wire rate
//	remote write (short batch):  < 0.5 µs/op  — CPU issue rate into HIB queue
//	remote read  (round trip):   7.2 µs
//
// Read round-trip budget on a one-switch (star) network, in ns:
//
//	CPU issue            80      (CPUOp)
//	TC read setup      1000      (TCReadSetup)
//	local HIB           300      (HIBService)
//	request: 2 links   1520      (2 × [5 words × 140 + 10] + 100 route)
//	remote HIB          300      (HIBService)
//	MPM read            400      (MPMRead)
//	reply: 2 links     1520
//	local HIB           300      (HIBService)
//	TC reply to CPU    1780      (TCReadReply)
//	                  ─────
//	                   7200  =  7.2 µs
//
// Write issue budget: CPUOp (80) + TCWriteLatch (400) = 480 ns < 0.5 µs;
// wire rate: header 40 B = 5 words × LinkWordTime (140) = 700 ns = 0.70 µs.
package params

import (
	"fmt"
	"slices"
	"strings"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
)

// Placement selects where locally-homed shared data lives (§2.2.1).
type Placement int

// The two placements the paper's prototypes use.
const (
	// SharedOnHIB is Telegraphos I: shared data in memory modules on the
	// HIB board, so every shared access crosses the TurboChannel.
	SharedOnHIB Placement = iota
	// SharedInMain is Telegraphos II: shared data in a portion of main
	// memory — cacheable and faster for the local processor.
	SharedInMain
)

// String names the placement.
func (p Placement) String() string {
	if p == SharedOnHIB {
		return "hib-memory"
	}
	return "main-memory"
}

// Timing holds every latency constant of the machine model.
type Timing struct {
	// CPU.
	CPUOp        sim.Time // basic instruction issue cost
	LocalMemRead sim.Time // load from local (non-shared) cached memory
	LocalMemWrit sim.Time // store to local (non-shared) cached memory

	// TurboChannel.
	TCWriteLatch sim.Time // uncached store latched by the HIB; bus then released
	TCReadSetup  sim.Time // read request issue over the TurboChannel
	TCReadReply  sim.Time // HIB-to-CPU data return transaction

	// HIB.
	HIBService sim.Time // per-packet HIB processing (latch, decode, route)
	MPMRead    sim.Time // shared-memory (MPM) read access
	MPMWrite   sim.Time // shared-memory (MPM) write access (posted)

	// OS software path.
	Trap            sim.Time // user→kernel entry + exit
	Interrupt       sim.Time // interrupt delivery + dispatch
	ContextSwitch   sim.Time // full context switch
	FaultService    sim.Time // page-fault handler bookkeeping
	MemCopyPerWord  sim.Time // software copy cost per word
	DiskLatency     sim.Time // disk access latency (seek + rotation)
	DiskPerWord     sim.Time // disk transfer per word
	SoftMsgOverhead sim.Time // protocol-stack cost per OS-mediated message
	TLBMissCost     sim.Time // page-table walk on TLB miss
	PALCall         sim.Time // PAL-code entry/exit (Telegraphos I launch)
	CounterOverhead sim.Time // §2.3.3: one counter read-modify-write (2 accesses + inc)
}

// Sizing holds every capacity constant of the machine model.
type Sizing struct {
	MemBytes          int // per-node memory size
	PageSize          int // page size in bytes
	TLBEntries        int
	HIBWriteQueue     int // outgoing write queue depth (packets)
	Contexts          int // Telegraphos contexts per HIB (§2.2.4)
	CounterCacheSize  int // pending-write counter CAM entries (§2.3.4)
	MulticastEntries  int // multicast list entries (Table 1: 16 K)
	PageCounterPages  int // pages with access counters (Table 1: 64 K)
	MaxOutstandingRds int // concurrent outstanding reads (§2.3.5 note: 1)
}

// Config is the complete machine description handed to the cluster
// builder.
type Config struct {
	Nodes     int
	Seed      int64
	Placement Placement
	Timing    Timing
	Sizing    Sizing
	Link      link.Config
	Switch    switchfab.Config
	// Topology selects the fabric, one of Topologies: "pair", "star",
	// "chain", "tree", or one of the generated shapes — "torus2d",
	// "torus3d" (k-ary n-cube with dimension-order routing and
	// VC-dateline deadlock avoidance), "fattree" (up*/down*),
	// "dragonfly" (minimal) or "dragonfly-val" (Valiant non-minimal).
	Topology string
	// ChainPerSwitch is the nodes-per-switch for the chain topology.
	ChainPerSwitch int
	// TreeRadix is the switch fan-out for the tree topology.
	TreeRadix int
	// CoresPerNode is the number of CPU cores per workstation (0 or 1 =
	// single-core). All cores of a node share its MMU, memory, OS and
	// HIB, so they contend for the one TurboChannel and the board's
	// finite write queue — the paper's single-HIB workstation scaled up.
	CoresPerNode int
	// Shards is the number of parallel simulation shards the cluster is
	// partitioned into (0 or 1 = classic sequential engine). Results are
	// bit-identical across shard counts; shards only change wall-clock
	// speed.
	Shards int
}

// Topologies names every fabric core.New builds, in the order help
// texts list them.
var Topologies = []string{"pair", "star", "chain", "tree", "torus2d", "torus3d", "fattree", "dragonfly", "dragonfly-val"}

// CheckTopology rejects a fabric name that is not one of Topologies, and
// the pair fabric for any node count but two.
func CheckTopology(name string, nodes int) error {
	if !slices.Contains(Topologies, name) {
		return fmt.Errorf("params: unknown topology %q (want one of %s)", name, strings.Join(Topologies, ", "))
	}
	if name == "pair" && nodes != 2 {
		return fmt.Errorf("params: the pair topology connects exactly 2 nodes, not %d", nodes)
	}
	return nil
}

// DefaultTiming returns the calibrated timing constants.
func DefaultTiming() Timing {
	return Timing{
		CPUOp:        80 * sim.Nanosecond,
		LocalMemRead: 100 * sim.Nanosecond,
		LocalMemWrit: 100 * sim.Nanosecond,

		TCWriteLatch: 400 * sim.Nanosecond,
		TCReadSetup:  1000 * sim.Nanosecond,
		TCReadReply:  1780 * sim.Nanosecond,

		HIBService: 300 * sim.Nanosecond,
		MPMRead:    400 * sim.Nanosecond,
		MPMWrite:   100 * sim.Nanosecond,

		Trap:            20 * sim.Microsecond,
		Interrupt:       30 * sim.Microsecond,
		ContextSwitch:   50 * sim.Microsecond,
		FaultService:    25 * sim.Microsecond,
		MemCopyPerWord:  20 * sim.Nanosecond,
		DiskLatency:     10 * sim.Millisecond,
		DiskPerWord:     50 * sim.Nanosecond,
		SoftMsgOverhead: 30 * sim.Microsecond,
		TLBMissCost:     400 * sim.Nanosecond,
		PALCall:         500 * sim.Nanosecond,
		CounterOverhead: 250 * sim.Nanosecond,
	}
}

// DefaultSizing returns the Telegraphos I capacities (Table 1).
func DefaultSizing() Sizing {
	return Sizing{
		MemBytes:          16 << 20, // 16 MB MPM (Table 1)
		PageSize:          addrspace.DefaultPageSize,
		TLBEntries:        64,
		HIBWriteQueue:     32,
		Contexts:          16,
		CounterCacheSize:  16,
		MulticastEntries:  16 << 10, // 16 K entries (Table 1)
		PageCounterPages:  64 << 10, // 64 K pages (Table 1)
		MaxOutstandingRds: 1,
	}
}

// DefaultLink returns the calibrated link parameters: 140 ns per 8-byte
// word (≈ 57 MB/s ribbon link) with a small per-VC FIFO.
func DefaultLink() link.Config {
	return link.Config{
		PropDelay:  10 * sim.Nanosecond,
		WordTime:   140 * sim.Nanosecond,
		BufPackets: 4,
	}
}

// Default returns the full calibrated configuration for n nodes on a
// single switch.
func Default(n int) Config {
	return Config{
		Nodes:          n,
		Seed:           1,
		Placement:      SharedOnHIB,
		Timing:         DefaultTiming(),
		Sizing:         DefaultSizing(),
		Link:           DefaultLink(),
		Switch:         switchfab.Config{RouteDelay: 100 * sim.Nanosecond},
		Topology:       "star",
		ChainPerSwitch: 4,
		TreeRadix:      4,
	}
}
