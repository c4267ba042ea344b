// Package simtest is a deterministic simulation-test harness in the
// FoundationDB style: one integer seed expands into a complete chaos
// scenario — cluster shape, fault plan, and a randomized multi-node
// workload over the full Telegraphos user-level operation set — and a
// battery of invariant checkers then walks the final state and the
// recorded event stream to prove the paper's semantic claims held under
// that adversarial schedule:
//
//   - coherence convergence: after quiescence every replica of the
//     update-protocol page equals the owner's copy, and the owner's copy
//     is the last serialized write (§2.3.3);
//   - per-location coherence: all nodes' applied-value histories embed
//     in one total write order (internal/consistency);
//   - fence semantics: every operation issued before a FENCE is globally
//     serialized/applied no later than the FENCE's completion (§2.3.5);
//   - counter hygiene: no pending-write counter survives quiescence;
//   - exactly-once delivery: remote fetch&increment totals equal the
//     final counter value even with packet drops, duplicates, and
//     reordering on every link;
//   - fabric drain: no outstanding operations, unacked ARQ frames, or
//     queued packets remain after quiescence.
//
// Everything — topology, fault dice, workload interleavings — derives
// from the seed through platform-stable RNG streams (sim.RNG), so the
// same seed always produces a byte-identical trace hash, and a failing
// seed is a complete reproducer:
//
//	go test ./internal/simtest -run TestSimChaos -seed=N
package simtest

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/collective"
	"telegraphos/internal/core"
	"telegraphos/internal/linearize"
	"telegraphos/internal/link"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
	"telegraphos/internal/trace"
)

// Options adjusts how a scenario is built.
type Options struct {
	// Shards sets the number of simulation shards the cluster runs on
	// (0 or 1 = sequential). A scenario's trace hash is invariant to this
	// knob — the property TestShardInvariance proves.
	Shards int
	// NoFaults disables the link fault plan (clean-network control runs).
	NoFaults bool
	// BreakCoherence installs the deliberately broken protocol variant
	// (coherence.(*Update).BreakSkipReflectTo on a non-owner replica) so
	// tests can prove the invariant checkers actually catch corruption.
	BreakCoherence bool
	// SimBudget caps simulated time (default 10 s — far beyond any
	// healthy scenario; hitting it is itself an invariant violation).
	SimBudget sim.Time
	// OpsPerNode overrides the scenario's drawn program length when > 0
	// (long bounded-memory runs without touching the seed mapping).
	OpsPerNode int
	// SpillPath, when non-empty, pages the canonical merged stream to this
	// TGE1 file as the windows drain (offline replay via `tgtrace events`).
	SpillPath string
}

// Scenario is the full derived description of one chaos run.
type Scenario struct {
	Seed           int64
	Nodes          int
	Topology       string
	ChainPerSwitch int
	Placement      params.Placement
	Mode           coherence.CounterMode
	Faults         *link.FaultPlan
	OpsPerNode     int
	Barriers       int
	CohWords       int // contended words on the replicated page
	PlainWords     int // words in the plain shared region
	CopyWords      int // words per remote-copy operation
	Owner          int // owner of the replicated page
	Copies         []int
	// FabricSync replaces the host-side hot-counter barrier with the
	// in-fabric (switch-resident) collective barrier.
	FabricSync bool
	// Combining enables in-switch fetch&add combining fabric-wide.
	Combining bool
}

// String renders a one-line scenario summary.
func (sc *Scenario) String() string {
	f := "clean"
	if sc.Faults != nil {
		f = fmt.Sprintf("drop=%.0f%% dup=%.0f%% reorder=%.0f%% jitter=%v",
			100*sc.Faults.DropProb, 100*sc.Faults.DupProb, 100*sc.Faults.ReorderProb, sc.Faults.JitterMax)
	}
	coll := ""
	if sc.FabricSync {
		coll += " fabric-sync"
	}
	if sc.Combining {
		coll += " comb"
	}
	return fmt.Sprintf("seed=%d nodes=%d topo=%s mode=%v ops=%d barriers=%d%s [%s]",
		sc.Seed, sc.Nodes, sc.Topology, sc.Mode, sc.OpsPerNode, sc.Barriers, coll, f)
}

// ScenarioFor expands seed into its scenario under opts.
func ScenarioFor(seed int64, opts Options) Scenario {
	rng := sim.ForkRNG(uint64(seed), "simtest/scenario")
	sc := Scenario{
		Seed:           seed,
		Nodes:          2 + rng.Intn(7), // 2..8
		ChainPerSwitch: 2,
		OpsPerNode:     24 + rng.Intn(56),
		Barriers:       rng.Intn(3),
		CohWords:       2 + rng.Intn(5),
		PlainWords:     4 + rng.Intn(12),
		CopyWords:      16 + rng.Intn(112),
	}
	switch {
	case sc.Nodes == 2 && rng.Bool(0.34):
		sc.Topology = "pair"
	case sc.Nodes >= 4 && rng.Bool(0.4):
		sc.Topology = "chain"
		sc.ChainPerSwitch = 2 + rng.Intn(2)
	default:
		sc.Topology = "star"
	}
	if rng.Bool(0.5) {
		sc.Placement = params.SharedInMain
	}
	sc.Mode = coherence.CountersCached
	if rng.Bool(0.4) {
		sc.Mode = coherence.CountersInfinite
	}
	if !opts.NoFaults {
		sc.Faults = &link.FaultPlan{
			Seed:        seed,
			DropProb:    0.01 + 0.11*rng.Float64(),
			DupProb:     0.08 * rng.Float64(),
			ReorderProb: 0.12 * rng.Float64(),
			JitterMax:   rng.Duration(1500 * sim.Nanosecond),
		}
	}
	// Replica set: the owner plus at least one more node (when there is
	// one); every other node joins with probability 1/2 and accesses the
	// owner's copy directly otherwise.
	sc.Owner = rng.Intn(sc.Nodes)
	sc.Copies = []int{sc.Owner}
	for i := 0; i < sc.Nodes; i++ {
		if i != sc.Owner && rng.Bool(0.5) {
			sc.Copies = append(sc.Copies, i)
		}
	}
	if len(sc.Copies) == 1 && sc.Nodes > 1 {
		sc.Copies = append(sc.Copies, (sc.Owner+1)%sc.Nodes)
	}
	// In-network collectives. Drawn last — and unconditionally — so every
	// earlier field keeps its draw order (and thus its value) across
	// versions of this function.
	sc.FabricSync = rng.Bool(0.5) && sc.Barriers > 0
	sc.Combining = rng.Bool(0.4)
	// Generated fabrics — drawn after everything above, for the same
	// draw-order reason: a slice of the star scenarios re-lands on a
	// torus, fat-tree or dragonfly at the same node count, so the chaos
	// workload also exercises the deadlock-avoiding multi-hop routes.
	if genTopo := rng.Intn(10); sc.Topology == "star" && genTopo < 5 {
		sc.Topology = []string{"torus2d", "torus3d", "fattree", "dragonfly", "dragonfly-val"}[genTopo]
	}
	return sc
}

// Violation is one invariant failure.
type Violation struct {
	// Invariant names the broken property.
	Invariant string
	// Detail explains what was observed.
	Detail string
}

// String renders "invariant: detail".
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Result summarizes one chaos run.
type Result struct {
	Scenario   Scenario
	TraceHash  uint64
	Events     int
	SimTime    sim.Time
	FaultStats link.FaultStats
	Violations []Violation
	// PeakResident is the largest number of undrained events buffered in
	// the trace rings at any drain boundary — the bounded-memory figure.
	PeakResident int
	// PeakWindow is the online checker's largest undecided per-location
	// window.
	PeakWindow int
	// Collective sums the per-switch collective/combining counters
	// (nonzero only when the scenario drew FabricSync or Combining).
	Collective switchfab.CollectiveStats
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Reproducer returns the one-line command that replays a seed.
func Reproducer(seed int64) string {
	return fmt.Sprintf("go test ./internal/simtest -run TestSimChaos -seed=%d", seed)
}

// Run expands seed into a scenario, executes it, and checks every
// invariant. The returned error is reserved for harness-level failures
// (a process panic); semantic failures land in Result.Violations.
func Run(seed int64, opts Options) (*Result, error) {
	res, _ := run(seed, opts, nil)
	return res, nil
}

// run is Run with one extra sink, tap (nil for none), attached to the
// merged stream alongside the harness's own; it also returns the built
// harness, so tests can inspect its online checker after the run.
func run(seed int64, opts Options, tap trace.Sink) (*Result, *harness) {
	sc := ScenarioFor(seed, opts)
	if opts.OpsPerNode > 0 {
		sc.OpsPerNode = opts.OpsPerNode
	}
	h := build(sc, opts, tap)
	res := &Result{Scenario: sc}

	budget := opts.SimBudget
	if budget <= 0 {
		budget = 10 * sim.Second
	}
	err := h.c.RunUntil(budget)
	// Flush the windows and settle the online checkers: everything the
	// invariants need has been accumulated while the stream drained.
	h.w.DrainAll()
	h.olz.Finish()
	if h.sp != nil {
		if cerr := h.sp.Close(); cerr != nil {
			h.extraVios = append(h.extraVios, Violation{
				Invariant: "spill", Detail: fmt.Sprintf("close: %v", cerr)})
		}
	}
	if serr := h.w.SpillErr(); serr != nil {
		h.extraVios = append(h.extraVios, Violation{
			Invariant: "spill", Detail: serr.Error()})
	}
	switch {
	case err != nil:
		res.Violations = append(res.Violations, Violation{
			Invariant: "quiescence",
			Detail:    fmt.Sprintf("engine error: %v", err),
		})
		h.checkStalled(&res.Violations)
	case h.c.Group.Pending() > 0 || h.c.Group.Alive() > 0:
		res.Violations = append(res.Violations, Violation{
			Invariant: "quiescence",
			Detail: fmt.Sprintf("still active at the %v budget (%d events pending, %d programs blocked)",
				budget, h.c.Group.Pending(), h.c.Group.Alive()),
		})
		h.checkStalled(&res.Violations)
	default:
		// Only a quiesced run has meaningful final state to check.
		res.Violations = append(res.Violations, h.checkInvariants()...)
	}

	res.TraceHash = h.w.Hash()
	res.Events = int(h.w.Merged())
	// RunUntil parks the clock at the deadline once drained; the last
	// event's timestamp is the scenario's real extent.
	res.SimTime = h.c.Group.Now()
	if h.w.Merged() > 0 && err == nil {
		res.SimTime = sim.Time(h.w.LastAt())
	}
	res.FaultStats = h.c.Net.FaultStats()
	res.Collective = collective.FabricStats(h.c.Net)
	res.PeakResident = h.w.MaxResident()
	res.PeakWindow = h.olz.Stats().PeakWindow
	return res, h
}

// harness is one built scenario: cluster, regions, and bookkeeping.
type harness struct {
	sc   Scenario
	opts Options
	c    *core.Cluster
	u    *coherence.Update
	w    *trace.WindowedLog // streaming pipeline: rings → merge → sinks
	acc  *streamAcc         // invariant accumulator (a trace.Sink)
	olz  *linearize.Online  // windowed linearizability + fence checker
	locs map[uint64]bool    // single-copy words the checker is limited to
	tap  trace.Sink         // extra sink from run, or nil
	sp   *trace.SpillWriter // TGE1 spill, only under Options.SpillPath

	extraVios []Violation // harness-level failures (spill I/O)

	// Region layout (virtual base addresses + home nodes).
	cohVA   viewVA   // replicated page under the update protocol
	plainVA viewVA   // plain shared words, stored with unique values
	atomVA  viewVA   // word 0: fetch&inc counter, word 1: fetch&store target
	mcVA    viewVA   // multicast (eager-update) page, single writer = home
	srcVA   viewVA   // remote-copy source, prefilled before the chaos
	dstVA   []viewVA // per-node remote-copy destination

	// Issue tallies (unique values make cross-node matching exact). All
	// of these are derived from the pre-drawn programs at build time, so
	// nothing mutates them while shards run in parallel.
	perNode   []*nodeState
	incTotals []int          // fetch&incs issued per node
	copied    []int          // copies launched per node
	plainVals map[uint64]int // issued plain-region value → word
	cohVals   map[uint64]int // issued coherent-page value → word
	mcVals    map[uint64]int // issued multicast value → word
	fsVals    map[uint64]bool
}

// viewVA is a shared region's base address plus its home node.
type viewVA struct {
	va   addrspace.VAddr
	home int
}

// attachStream wires the streaming trace pipeline into the built
// cluster: the invariant accumulator, the online checker, the tap (if
// any) and the spill (if requested) on the merged stream, then
// core.AttachTrace for the per-node recorders and the drain hook.
// Called once at the end of build.
func (h *harness) attachStream() {
	h.w = trace.NewWindowedLog(h.sc.Nodes, 0)
	h.acc = newStreamAcc(h)
	h.olz = linearize.NewOnline()
	h.olz.RestrictLocs(h.locs)
	h.w.AddSink(h.acc)
	h.w.AddSink(h.olz)
	if h.tap != nil {
		h.w.AddSink(h.tap)
	}
	if h.opts.SpillPath != "" {
		sp, err := trace.NewFileSpill(h.opts.SpillPath)
		if err != nil {
			h.extraVios = append(h.extraVios, Violation{
				Invariant: "spill", Detail: fmt.Sprintf("create: %v", err)})
		} else {
			h.sp = sp
			h.w.SetSpill(sp)
		}
	}
	h.c.AttachTrace(h.w)
}
