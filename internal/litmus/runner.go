package litmus

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/collective"
	"telegraphos/internal/consistency"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/linearize"
	"telegraphos/internal/link"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
	"telegraphos/internal/trace"
)

// Protocol selects the coherence machinery a run attaches.
type Protocol int

// Protocols.
const (
	// Update is the Telegraphos owner-serialized update protocol (§2.3).
	Update Protocol = iota
	// Invalidate is the directory invalidate baseline (§2.3.6). Its
	// centralized directory model requires a single shard.
	Invalidate
	// Galactica is the ring-based update baseline (§2.4).
	Galactica
)

var protocolNames = map[Protocol]string{
	Update:     "update",
	Invalidate: "invalidate",
	Galactica:  "galactica",
}

// String names the protocol.
func (p Protocol) String() string {
	if s, ok := protocolNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Config fixes one run of one test.
type Config struct {
	// Protocol is the coherence machinery under test.
	Protocol Protocol
	// Shards is the simulation shard count (0/1 = sequential). Verdicts
	// and trace hashes are shard-invariant for identical configs.
	Shards int
	// Faults is the link fault schedule (nil = clean network).
	Faults *link.FaultPlan
	// Combining enables in-switch fetch&add combining fabric-wide
	// (internal/collective): remote fetch&increments travel as combinable
	// adds that switches may merge in flight. Semantics must be
	// indistinguishable from the uncombined runs.
	Combining bool
	// Variant scales the test's Stagger delays (timing sweep index).
	Variant int
	// Seed drives the simulation RNG streams.
	Seed int64
	// SimBudget caps simulated time (default 100 ms; hitting it is a
	// quiescence violation).
	SimBudget sim.Time
	// Topology selects the fabric (empty = "star"). Any params.Config
	// topology is accepted, including the generated shapes (torus2d,
	// torus3d, fattree, dragonfly, dragonfly-val).
	Topology string
	// Nodes scales the machine: when larger than the test's role count
	// (threads + passive homes), the roles are spread evenly across the
	// physical nodes, so the litmus traffic crosses the long paths of a
	// big fabric instead of adjacent host ports. Zero keeps the minimal
	// machine.
	Nodes int
}

// RunResult is one run's verdict.
type RunResult struct {
	// Outcome is the observed final outcome.
	Outcome Outcome
	// Forbidden reports whether the outcome matched the test's forbidden
	// predicate (a violation under Update/Invalidate; the expected
	// anomaly under Galactica).
	Forbidden bool
	// Witnessed reports whether the outcome matched the witness
	// predicate.
	Witnessed bool
	// Violations are conformance failures: quiescence, linearizability,
	// fence order, coherence. Forbidden-outcome hits under the
	// Telegraphos protocols are appended here too.
	Violations []string
	// TraceHash fingerprints the run's merged event stream.
	TraceHash uint64
	// Events is the merged stream length.
	Events int
}

// lditers bounds an LdWait poll loop.
const ldIters = 400

// Run executes one litmus test under cfg.
func Run(t *Test, cfg Config) *RunResult {
	res, _ := run(t, cfg, nil)
	return res
}

// run is Run with one extra sink, tap (nil for none), attached to the
// merged stream beside the online checker, which it also returns.
func run(t *Test, cfg Config, tap trace.Sink) (*RunResult, *linearize.Online) {
	nThreads := len(t.Threads)
	homeRole := nThreads // first passive role (plain homes / coherent owner)
	nRoles := nThreads
	switch {
	case t.Region == Coherent && t.HomeThread >= 0:
		homeRole = t.HomeThread
	case t.Region == Coherent:
		nRoles = nThreads + 1
	default:
		nRoles = nThreads + t.NLocs
	}

	// Role → physical node. On the minimal machine this is the identity;
	// with cfg.Nodes larger, roles spread evenly so the test's traffic
	// crosses a real diameter.
	nNodes := cfg.Nodes
	if nNodes < nRoles {
		nNodes = nRoles
	}
	phys := make([]int, nRoles)
	for r := range phys {
		phys[r] = r * nNodes / nRoles
	}
	homeNode := phys[homeRole]

	pcfg := params.Default(nNodes)
	pcfg.Seed = cfg.Seed
	pcfg.Topology = "star"
	if cfg.Topology != "" {
		pcfg.Topology = cfg.Topology
	}
	pcfg.Sizing.MemBytes = 1 << 20
	pcfg.Link.Faults = cfg.Faults
	pcfg.Shards = cfg.Shards
	c := core.New(pcfg)
	if cfg.Combining {
		collective.New(c).EnableCombining(switchfab.CombineConfig{})
	}

	// Streaming trace pipeline: per-node rings drained at every safe
	// watermark into the online checker (and the tap).
	w := trace.NewWindowedLog(nNodes, 0)
	olz := linearize.NewOnline()
	w.AddSink(olz)
	if tap != nil {
		w.AddSink(tap)
	}
	c.AttachTrace(w)

	// Locations. Plain: one word on its own passive home each (distinct
	// homes keep store paths independent — the relaxations the tests
	// probe need them). Coherent: consecutive words of one replicated
	// page.
	locVA := make([]addrspace.VAddr, t.NLocs)
	locHome := make([]int, t.NLocs)

	// The protocol attaches on every run — plain-region tests exercise
	// its pass-through paths; coherent tests put their page under it.
	var upd *coherence.Update
	var gal *coherence.Galactica
	var inv *coherence.Invalidate
	switch cfg.Protocol {
	case Update:
		upd = coherence.NewUpdate(c, coherence.CountersInfinite)
	case Invalidate:
		inv = coherence.NewInvalidate(c)
	case Galactica:
		gal = coherence.NewGalactica(c)
	}

	if t.Region == Plain {
		for l := 0; l < t.NLocs; l++ {
			home := phys[nThreads+l]
			locVA[l] = c.AllocShared(addrspace.NodeID(home), 8)
			locHome[l] = home
		}
	} else {
		pageVA := c.AllocShared(addrspace.NodeID(homeNode), c.PageSize())
		for l := 0; l < t.NLocs; l++ {
			locVA[l] = pageVA + addrspace.VAddr(8*l)
			locHome[l] = homeNode
		}
		switch {
		case upd != nil:
			copies := make([]int, 0, nNodes)
			for i := 0; i < nNodes; i++ {
				copies = append(copies, i)
			}
			upd.SharePage(pageVA, addrspace.NodeID(homeNode), copies)
			// Record every word's applied values on every replica so the
			// per-location coherence checker has full histories.
			for i := 0; i < nNodes; i++ {
				for l := 0; l < t.NLocs; l++ {
					upd.Mgr(i).Watch(c.SharedOffset(locVA[l]))
				}
			}
		case inv != nil:
			inv.SharePage(pageVA)
		case gal != nil:
			var ring []int
			if t.Ring == nil {
				for i := 0; i < nNodes; i++ {
					ring = append(ring, i)
				}
			} else {
				for _, r := range t.Ring {
					ring = append(ring, phys[r])
				}
			}
			gal.ShareRing(pageVA, ring)
		}
	}

	// Observation point.
	watchOff := uint64(0)
	if t.Watch != nil {
		watchOff = c.SharedOffset(locVA[t.Watch.Loc])
		switch {
		case upd != nil:
			upd.Mgr(phys[t.Watch.Thread]).Watch(watchOff)
		case gal != nil:
			gal.Mgr(phys[t.Watch.Thread]).Watch(watchOff)
		}
	}

	// The online checker linearizes the plain words only (replicated
	// pages have their own coherence checkers below); the fence contract
	// is always checked, over every operation.
	locs := make(map[uint64]bool, t.NLocs)
	if t.Region == Plain {
		for l := 0; l < t.NLocs; l++ {
			locs[uint64(addrspace.NewGAddr(addrspace.NodeID(locHome[l]), c.SharedOffset(locVA[l])))] = true
		}
	}
	olz.RestrictLocs(locs)

	// Thread programs. Each writes only its own registers; results are
	// read after the engines join.
	out := make([]uint64, t.NOut)
	for ti, th := range t.Threads {
		ti, th := ti, th
		var stagger sim.Time
		if ti < len(t.Stagger) {
			stagger = t.Stagger[ti] * sim.Time(cfg.Variant)
		}
		c.Spawn(phys[ti], fmt.Sprintf("litmus%d", ti), func(ctx *cpu.Ctx) {
			if stagger > 0 {
				ctx.Compute(stagger)
			}
			for _, s := range th {
				switch s.Op {
				case St:
					ctx.Store(locVA[s.Loc], s.Val)
				case Ld:
					out[s.Out] = ctx.Load(locVA[s.Loc])
				case LdWait:
					for i := 0; i < ldIters; i++ {
						if ctx.Load(locVA[s.Loc]) != 0 {
							out[s.Out] = 1
							break
						}
						ctx.Compute(500 * sim.Nanosecond)
					}
				case Fence:
					ctx.Fence()
				case FAI:
					out[s.Out] = ctx.FetchAndInc(locVA[s.Loc])
				case FAS:
					out[s.Out] = ctx.FetchAndStore(locVA[s.Loc], s.Val)
				case CAS:
					out[s.Out] = ctx.CompareAndSwap(locVA[s.Loc], s.Val, s.Exp)
				case Delay:
					ctx.Compute(s.D)
				}
			}
			ctx.Fence() // drain this thread's outstanding operations
		})
	}

	budget := cfg.SimBudget
	if budget <= 0 {
		budget = 100 * sim.Millisecond
	}
	res := &RunResult{}
	err := c.RunUntil(budget)
	w.DrainAll()
	olz.Finish()
	res.TraceHash = w.Hash()
	res.Events = int(w.Merged())

	switch {
	case err != nil:
		res.Violations = append(res.Violations, fmt.Sprintf("quiescence: engine error: %v", err))
		return res, olz
	case !c.Group.Idle() || c.Group.Alive() > 0:
		res.Violations = append(res.Violations,
			fmt.Sprintf("quiescence: still active at the %v budget", budget))
		return res, olz
	}

	// Outcome: registers, authoritative final values, watched sequence.
	res.Outcome = Outcome{R: append([]uint64(nil), out...), Final: make([]uint64, t.NLocs)}
	for l := 0; l < t.NLocs; l++ {
		res.Outcome.Final[l] = c.Nodes[locHome[l]].Mem.ReadWord(c.SharedOffset(locVA[l]))
	}
	if t.Watch != nil {
		var vals []uint64
		switch {
		case upd != nil:
			vals = upd.Mgr(phys[t.Watch.Thread]).AppliedValues(watchOff)
		case gal != nil:
			vals = gal.Mgr(phys[t.Watch.Thread]).AppliedValues(watchOff)
		}
		res.Outcome.ABA = hasABA(vals)
	}
	res.Forbidden = t.Forbidden != nil && t.Forbidden(res.Outcome)
	res.Witnessed = t.Witness != nil && t.Witness(res.Outcome)

	// Conformance: the history reconstructed from the stream must
	// linearize on every plain word and satisfy the fence contract under
	// every protocol — both decided online, window by window, while the
	// run drained; a forbidden outcome is a violation for the Telegraphos
	// protocols (for Galactica it is the documented anomaly).
	for _, v := range olz.Violations() {
		res.Violations = append(res.Violations, v.Error())
	}
	for _, v := range olz.FenceViolations() {
		res.Violations = append(res.Violations, v.Error())
	}
	if t.Region == Coherent && upd != nil {
		res.Violations = append(res.Violations, checkCoherentPage(t, c, upd, locVA, homeNode)...)
	}
	if res.Forbidden && cfg.Protocol != Galactica {
		res.Violations = append(res.Violations,
			fmt.Sprintf("forbidden outcome under %v: %v", cfg.Protocol, res.Outcome))
	}
	return res, olz
}

// checkCoherentPage validates the update protocol's page after
// quiescence: replicas converged to the owner's copy and every node's
// applied-value history embeds in one per-word total order.
func checkCoherentPage(t *Test, c *core.Cluster, upd *coherence.Update,
	locVA []addrspace.VAddr, homeNode int) []string {
	var out []string
	for l := 0; l < t.NLocs; l++ {
		off := c.SharedOffset(locVA[l])
		ownerV := c.Nodes[homeNode].Mem.ReadWord(off)
		for i := range c.Nodes {
			if v := c.Nodes[i].Mem.ReadWord(off); v != ownerV {
				out = append(out, fmt.Sprintf(
					"coherence-convergence: loc %d replica on node %d holds %#x, owner holds %#x", l, i, v, ownerV))
			}
		}
		hists := make(map[string][]uint64, len(c.Nodes))
		for i := range c.Nodes {
			hists[fmt.Sprintf("node%d", i)] = upd.Mgr(i).AppliedValues(off)
		}
		if err := consistency.CheckCoherent(hists); err != nil {
			out = append(out, fmt.Sprintf("coherence-order: loc %d: %v", l, err))
		}
	}
	return out
}
