// Package telegraphos is a simulation-backed reproduction of
// "Telegraphos: High-Performance Networking for Parallel Processing on
// Workstation Clusters" (Markatos & Katevenis, HPCA-2, 1996).
//
// It provides a deterministic discrete-event model of a Telegraphos
// workstation cluster — CPUs, TurboChannel I/O buses, Host Interface
// Boards (HIBs), links and switches — together with the paper's
// user-level shared-memory operations (remote read/write, remote copy,
// remote atomics, page access counters, eager-update multicast, FENCE),
// its owner-based counter coherence protocol, and the software baselines
// it compares against (virtual shared memory, OS-mediated messaging,
// Galactica-style ring updates).
//
// # Quick start
//
//	c := telegraphos.NewCluster(telegraphos.WithNodes(2))
//	x := c.AllocShared(1, 8) // one word homed on node 1
//	c.Spawn(0, "hello", func(ctx *telegraphos.Ctx) {
//		ctx.Store(x, 42) // a user-level remote write: ~0.5 µs
//		ctx.Fence()      // wait for global visibility
//		v := ctx.Load(x) // a blocking remote read: ~7.2 µs
//		_ = v
//	})
//	if err := c.Run(); err != nil { ... }
//
// Programs run as coroutine processes on simulated CPUs; all latencies
// are simulated nanoseconds, calibrated to the paper's measured numbers
// (0.70 µs remote write, 7.2 µs remote read).
package telegraphos

import (
	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/link"
	"telegraphos/internal/msg"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/tsync"
)

// Re-exported fundamental types.
type (
	// Ctx is a running program's handle to its simulated CPU.
	Ctx = cpu.Ctx
	// VAddr is a program virtual address.
	VAddr = addrspace.VAddr
	// NodeID identifies a workstation in the cluster.
	NodeID = addrspace.NodeID
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// Lock is a spinlock over remote compare-and-swap.
	Lock = tsync.Lock
	// Barrier is a counter barrier over remote fetch-and-increment.
	Barrier = tsync.Barrier
	// Channel is a user-level message channel over remote writes.
	Channel = msg.Channel
	// Config is the full machine description.
	Config = params.Config
	// Placement selects where locally-homed shared data lives (§2.2.1).
	Placement = params.Placement
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Shared-data placements (§2.2.1).
const (
	// PlacementHIB is Telegraphos I: shared data on the HIB board.
	PlacementHIB = params.SharedOnHIB
	// PlacementMain is Telegraphos II: shared data in main memory.
	PlacementMain = params.SharedInMain
)

// Option customizes the cluster configuration.
type Option func(*Config)

// WithNodes sets the number of workstations (default 2).
func WithNodes(n int) Option { return func(c *Config) { c.Nodes = n } }

// WithSeed sets the deterministic random seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithPlacement selects the Telegraphos I or II shared-data placement.
func WithPlacement(p Placement) Option { return func(c *Config) { c.Placement = p } }

// WithTopology selects the fabric: "pair", "star" (default), "chain",
// "tree", "torus2d", "torus3d", "fattree", "dragonfly" or
// "dragonfly-val".
func WithTopology(kind string) Option { return func(c *Config) { c.Topology = kind } }

// WithChainPerSwitch sets nodes per switch for the chain topology.
func WithChainPerSwitch(k int) Option { return func(c *Config) { c.ChainPerSwitch = k } }

// WithConfig replaces the entire configuration (advanced use).
func WithConfig(cfg Config) Option { return func(c *Config) { *c = cfg } }

// FaultPlan is a seeded link-fault environment: drops, duplicates,
// jitter, and reordering on every fabric link, recovered by the
// link-level retransmission layer so the cluster's memory semantics
// survive. See link.FaultPlan for the knobs.
type FaultPlan = link.FaultPlan

// WithFaultPlan installs a fault plan on every link of the fabric. The
// plan is fully deterministic: the same plan (and cluster seed) always
// produces the same packet-level schedule.
func WithFaultPlan(fp FaultPlan) Option {
	return func(c *Config) { c.Link.Faults = &fp }
}

// Cluster is a simulated Telegraphos machine. It embeds the assembly
// layer, so all of core.Cluster's methods (AllocShared, AllocPrivate,
// Spawn, Run, RemapShared, ...) are available directly.
type Cluster struct {
	*core.Cluster
}

// NewCluster builds a cluster with the calibrated default configuration,
// adjusted by opts.
func NewCluster(opts ...Option) *Cluster {
	cfg := params.Default(2)
	for _, o := range opts {
		o(&cfg)
	}
	return &Cluster{Cluster: core.New(cfg)}
}

// NewLock allocates a spinlock homed on node home.
func (c *Cluster) NewLock(home NodeID) Lock { return tsync.NewLock(c.Cluster, home) }

// NewBarrier allocates a barrier for n participants homed on node home.
func (c *Cluster) NewBarrier(home NodeID, n int) *Barrier {
	return tsync.NewBarrier(c.Cluster, home, n)
}

// NewChannel allocates a user-level message channel delivered to node
// home with a ring of capWords payload words.
func (c *Cluster) NewChannel(home NodeID, capWords int) *Channel {
	return msg.NewChannel(c.Cluster, home, capWords)
}

// CounterMode selects the pending-write counter implementation of the
// update-coherence protocol (§2.3.3–§2.3.4).
type CounterMode = coherence.CounterMode

// Counter modes.
const (
	// CountersOff is Telegraphos I (no counters; chaotic writers may see
	// the §2.3.2 anomalies).
	CountersOff = coherence.CountersOff
	// CountersCached uses the §2.3.4 CAM cache.
	CountersCached = coherence.CountersCached
	// CountersInfinite is the idealized per-word-counter design.
	CountersInfinite = coherence.CountersInfinite
)

// UpdateCoherence is the paper's owner-based update protocol attached to
// a cluster.
type UpdateCoherence = coherence.Update

// AttachUpdateCoherence installs the §2.3 update protocol on the cluster.
// Call SharePage on the result to replicate pages.
func (c *Cluster) AttachUpdateCoherence(mode CounterMode) *UpdateCoherence {
	return coherence.NewUpdate(c.Cluster, mode)
}

// DefaultConfig exposes the calibrated configuration for n nodes.
func DefaultConfig(n int) Config { return params.Default(n) }
