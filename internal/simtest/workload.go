package simtest

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/collective"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
	"telegraphos/internal/trace"
	"telegraphos/internal/tsync"
)

// mcWords is the number of words exercised on the multicast page.
const mcWords = 8

// syncWaiter is one participant's barrier handle — satisfied by both the
// host-side tsync.Waiter and the in-fabric collective.Waiter.
type syncWaiter interface{ Wait(*cpu.Ctx) }

// opKind enumerates the generated operations.
type opKind int

const (
	opPlainStore opKind = iota // remote write to the plain region
	opPlainLoad                // remote/local read of the plain region
	opCohStore                 // store to the replicated page
	opCohLoad                  // load from the replicated page
	opFetchInc                 // remote fetch&increment of the counter word
	opFetchStore               // remote fetch&store of the swap word
	opCAS                      // remote compare&swap of the swap word
	opCopy                     // non-blocking remote copy src → own dst
	opMcastStore               // store to the eager-update multicast page
	opFence                    // MEMORY_BARRIER
	opCompute                  // local computation
	opBarrier                  // global barrier (segment boundary)
)

// op is one generated operation with its pre-drawn parameters, so the
// program's behaviour is fixed before the simulation starts.
type op struct {
	kind     opKind
	word     int
	val      uint64
	expected uint64   // opCAS comparand
	d        sim.Time // opCompute duration
}

// regionKind tags a tracked write with the region it targeted.
type regionKind int

const (
	regPlain regionKind = iota
	regCoh
	regMcast
)

// writeRec is one issued write awaiting fence coverage.
type writeRec struct {
	region regionKind
	word   int
	val    uint64
}

// fenceRec is one completed FENCE and the writes it must cover.
type fenceRec struct {
	end    int64
	writes []writeRec
}

// nodeState is one node's program bookkeeping. Each instance is written
// only from its own node's program (i.e. from that node's shard), so
// sharded runs never contend on it.
type nodeState struct {
	pending    []writeRec
	fences     []fenceRec
	violations []Violation // provenance violations observed while running
}

// build constructs the cluster, regions, and per-node programs for sc;
// tap, if not nil, is attached to the merged stream as an extra sink.
func build(sc Scenario, opts Options, tap trace.Sink) *harness {
	cfg := params.Default(sc.Nodes)
	cfg.Seed = sc.Seed
	cfg.Topology = sc.Topology
	cfg.ChainPerSwitch = sc.ChainPerSwitch
	cfg.Placement = sc.Placement
	cfg.Sizing.MemBytes = 1 << 20 // scenarios need a handful of pages
	cfg.Link.Faults = sc.Faults
	cfg.Shards = opts.Shards

	h := &harness{
		sc:        sc,
		opts:      opts,
		tap:       tap,
		c:         core.New(cfg),
		incTotals: make([]int, sc.Nodes),
		copied:    make([]int, sc.Nodes),
		plainVals: make(map[uint64]int),
		cohVals:   make(map[uint64]int),
		mcVals:    make(map[uint64]int),
		fsVals:    make(map[uint64]bool),
	}

	layout := sim.ForkRNG(uint64(sc.Seed), "simtest/layout")

	// Replicated page under the update protocol, owned per the scenario.
	h.u = coherence.NewUpdate(h.c, sc.Mode)
	cohVA := h.c.AllocShared(addrspace.NodeID(sc.Owner), h.c.PageSize())
	h.u.SharePage(cohVA, addrspace.NodeID(sc.Owner), sc.Copies)
	h.cohVA = viewVA{va: cohVA, home: sc.Owner}
	cohOff := h.c.SharedOffset(cohVA)
	for _, n := range sc.Copies {
		for w := 0; w < sc.CohWords; w++ {
			h.u.Mgr(n).Watch(cohOff + 8*uint64(w))
		}
	}
	if opts.BreakCoherence {
		h.u.BreakSkipReflectTo(h.breakVictim())
	}

	// Plain shared words (no protocol) homed on one random node.
	plainHome := layout.Intn(sc.Nodes)
	h.plainVA = viewVA{va: h.c.AllocShared(addrspace.NodeID(plainHome), 8*sc.PlainWords), home: plainHome}

	// Atomic words: [0] fetch&inc counter, [1] fetch&store / CAS target.
	atomHome := layout.Intn(sc.Nodes)
	h.atomVA = viewVA{va: h.c.AllocShared(addrspace.NodeID(atomHome), 16), home: atomHome}

	// The single-copy words the linearizability checker covers: the plain
	// region and the two atomic words (replicated pages have their own
	// coherence checkers).
	h.locs = make(map[uint64]bool, sc.PlainWords+2)
	plainOff := h.c.SharedOffset(h.plainVA.va)
	for w := 0; w < sc.PlainWords; w++ {
		h.locs[uint64(addrspace.NewGAddr(addrspace.NodeID(plainHome), plainOff+8*uint64(w)))] = true
	}
	atomOff := h.c.SharedOffset(h.atomVA.va)
	h.locs[uint64(addrspace.NewGAddr(addrspace.NodeID(atomHome), atomOff))] = true
	h.locs[uint64(addrspace.NewGAddr(addrspace.NodeID(atomHome), atomOff+8))] = true

	// Eager-update multicast page: homed on (and written only by) node M;
	// every other node holds a mapped-out replica.
	mcHome := layout.Intn(sc.Nodes)
	mcVA := h.c.AllocShared(addrspace.NodeID(mcHome), h.c.PageSize())
	h.mcVA = viewVA{va: mcVA, home: mcHome}
	mcPN := addrspace.PageOf(h.c.SharedOffset(mcVA), h.c.PageSize())
	var mcDests []addrspace.GPage
	for i := 0; i < sc.Nodes; i++ {
		if i == mcHome {
			continue
		}
		mcDests = append(mcDests, addrspace.GPage{Node: addrspace.NodeID(i), Page: mcPN})
		h.c.RemapShared(i, mcVA, addrspace.NodeID(i)) // local replica
	}
	if err := h.c.Nodes[mcHome].HIB.MapMulticast(mcPN, mcDests...); err != nil {
		panic(err)
	}

	// Remote-copy source, prefilled directly (no simulated writes), plus a
	// private destination region per node.
	srcHome := layout.Intn(sc.Nodes)
	h.srcVA = viewVA{va: h.c.AllocShared(addrspace.NodeID(srcHome), 8*sc.CopyWords), home: srcHome}
	srcOff := h.c.SharedOffset(h.srcVA.va)
	for j := 0; j < sc.CopyWords; j++ {
		h.c.Nodes[srcHome].Mem.WriteWord(srcOff+8*uint64(j), (uint64(j)+1)*0x9E3779B97F4A7C15^uint64(sc.Seed))
	}
	h.dstVA = make([]viewVA, sc.Nodes)
	for i := 0; i < sc.Nodes; i++ {
		h.dstVA[i] = viewVA{va: h.c.AllocShared(addrspace.NodeID(i), 8*sc.CopyWords), home: i}
	}

	// In-network collectives: the fabric barrier is a drop-in for the
	// host-side one, and combining transparently rewrites remote
	// fetch&increments — the invariants must hold identically either way.
	var coll *collective.Manager
	if sc.FabricSync || sc.Combining {
		coll = collective.New(h.c)
	}
	if sc.Combining {
		coll.EnableCombining(switchfab.CombineConfig{})
	}
	var participant func() syncWaiter
	if sc.Barriers > 0 {
		// The host-side barrier's home draw happens either way, so the
		// layout stream is identical across the FabricSync arms.
		barHome := addrspace.NodeID(layout.Intn(sc.Nodes))
		if sc.FabricSync {
			b := coll.NewBarrier()
			participant = func() syncWaiter { return b.Participant() }
		} else {
			b := tsync.NewBarrier(h.c, barHome, sc.Nodes)
			participant = func() syncWaiter { return b.Participant() }
		}
	}

	h.perNode = make([]*nodeState, sc.Nodes)
	for i := 0; i < sc.Nodes; i++ {
		h.perNode[i] = &nodeState{}
		ops := h.genProgram(i, plainHome, mcHome)
		h.tally(i, ops)
		var w syncWaiter
		if participant != nil {
			w = participant()
		}
		i, ops, w := i, ops, w
		h.c.Spawn(i, fmt.Sprintf("chaos%d", i), func(ctx *cpu.Ctx) {
			h.runProgram(ctx, i, ops, w)
		})
	}
	h.attachStream()
	return h
}

// breakVictim picks the replica the broken protocol variant starves: the
// first non-owner copy holder.
func (h *harness) breakVictim() addrspace.NodeID {
	for _, n := range h.sc.Copies {
		if n != h.sc.Owner {
			return addrspace.NodeID(n)
		}
	}
	panic("simtest: no non-owner replica to break")
}

// genProgram draws node i's operation sequence. Every parameter is fixed
// here, before the simulation starts, from the node's own RNG stream.
func (h *harness) genProgram(i, plainHome, mcHome int) []op {
	sc := h.sc
	rng := sim.ForkRNG(uint64(sc.Seed), fmt.Sprintf("simtest/node/%d", i))
	seq := uint64(0)
	nextVal := func() uint64 {
		seq++
		return uint64(i+1)<<32 | seq
	}

	// Weighted op mix; only node M writes the multicast page.
	weights := []struct {
		kind opKind
		w    int
	}{
		{opPlainStore, 20}, {opPlainLoad, 10},
		{opCohStore, 18}, {opCohLoad, 8},
		{opFetchInc, 10}, {opFetchStore, 5}, {opCAS, 5},
		{opCopy, 4}, {opFence, 8}, {opCompute, 12},
	}
	if i == mcHome {
		weights = append(weights, struct {
			kind opKind
			w    int
		}{opMcastStore, 15})
	}
	total := 0
	for _, e := range weights {
		total += e.w
	}

	// The program is split into Barriers+1 segments of seg ops, with a
	// global barrier at each boundary.
	seg := 0
	if sc.Barriers > 0 {
		seg = max(sc.OpsPerNode/(sc.Barriers+1), 1)
	}
	var fsSeen []uint64
	ops := make([]op, 0, sc.OpsPerNode+sc.Barriers)
	for k := 0; k < sc.OpsPerNode; k++ {
		if seg > 0 && k > 0 && k%seg == 0 && k/seg <= sc.Barriers {
			ops = append(ops, op{kind: opBarrier})
		}
		pick := rng.Intn(total)
		kind := weights[len(weights)-1].kind
		for _, e := range weights {
			if pick < e.w {
				kind = e.kind
				break
			}
			pick -= e.w
		}
		if kind == opPlainStore && i == plainHome {
			// A home-node store bypasses the packet path (and the event
			// stream), so the home only reads the plain region.
			kind = opPlainLoad
		}
		o := op{kind: kind}
		switch kind {
		case opPlainStore, opPlainLoad:
			o.word = rng.Intn(sc.PlainWords)
		case opCohStore, opCohLoad:
			o.word = rng.Intn(sc.CohWords)
		case opMcastStore:
			o.word = rng.Intn(mcWords)
		case opCompute:
			o.d = rng.Duration(2 * sim.Microsecond)
		}
		switch kind {
		case opPlainStore, opCohStore, opMcastStore, opFetchStore:
			o.val = nextVal()
		case opCAS:
			o.val = nextVal()
			if len(fsSeen) > 0 && rng.Bool(0.5) {
				o.expected = fsSeen[rng.Intn(len(fsSeen))]
			}
		}
		if kind == opFetchStore || kind == opCAS {
			fsSeen = append(fsSeen, o.val)
		}
		ops = append(ops, o)
	}
	return ops
}

// tally pre-registers node i's program in the cluster-wide issue maps.
// Programs execute every generated op unconditionally, so the tallies
// are exact — and recording them at build time means the shared maps are
// read-only while shards run in parallel.
func (h *harness) tally(i int, ops []op) {
	for _, o := range ops {
		switch o.kind {
		case opPlainStore:
			h.plainVals[o.val] = o.word
		case opCohStore:
			h.cohVals[o.val] = o.word
		case opMcastStore:
			h.mcVals[o.val] = o.word
		case opFetchStore, opCAS:
			h.fsVals[o.val] = true
		case opFetchInc:
			h.incTotals[i]++
		case opCopy:
			h.copied[i]++
		}
	}
}

// runProgram executes node i's generated sequence, tracking issued writes
// and fence completions for the invariant checkers.
func (h *harness) runProgram(ctx *cpu.Ctx, i int, ops []op, w syncWaiter) {
	ns := h.perNode[i]
	fence := func() {
		ctx.Fence()
		ns.fences = append(ns.fences, fenceRec{end: int64(ctx.Now()), writes: ns.pending})
		ns.pending = nil
	}
	for _, o := range ops {
		switch o.kind {
		case opPlainStore:
			ctx.Store(h.plainVA.va+addrspace.VAddr(8*o.word), o.val)
			ns.pending = append(ns.pending, writeRec{regPlain, o.word, o.val})
		case opPlainLoad:
			h.loadSanity(ns, "plain", ctx.Load(h.plainVA.va+addrspace.VAddr(8*o.word)), h.plainVals)
		case opCohStore:
			ctx.Store(h.cohVA.va+addrspace.VAddr(8*o.word), o.val)
			ns.pending = append(ns.pending, writeRec{regCoh, o.word, o.val})
		case opCohLoad:
			h.loadSanity(ns, "coherent", ctx.Load(h.cohVA.va+addrspace.VAddr(8*o.word)), h.cohVals)
		case opFetchInc:
			ctx.FetchAndInc(h.atomVA.va)
		case opFetchStore:
			ctx.FetchAndStore(h.atomVA.va+8, o.val)
		case opCAS:
			ctx.CompareAndSwap(h.atomVA.va+8, o.val, o.expected)
		case opCopy:
			ctx.RemoteCopy(h.dstVA[i].va, h.srcVA.va, h.sc.CopyWords)
		case opMcastStore:
			ctx.Store(h.mcVA.va+addrspace.VAddr(8*o.word), o.val)
			ns.pending = append(ns.pending, writeRec{regMcast, o.word, o.val})
		case opFence:
			fence()
		case opCompute:
			ctx.Compute(o.d)
		case opBarrier:
			fence() // close our bookkeeping before the embedded fence
			w.Wait(ctx)
		}
	}
	fence()
}

// loadSanity flags a loaded value that no program ever wrote: under
// unique-value workloads every observable word is either its initial zero
// or some issued value. Violations land in the observing node's own
// state (the shared maps are read-only during the run).
func (h *harness) loadSanity(ns *nodeState, region string, v uint64, issued map[uint64]int) {
	if v == 0 {
		return
	}
	if _, ok := issued[v]; !ok {
		ns.violations = append(ns.violations, Violation{
			Invariant: "value-provenance",
			Detail:    fmt.Sprintf("%s load observed %#x, which no program wrote", region, v),
		})
	}
}
