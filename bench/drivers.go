package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/linearize"
	"telegraphos/internal/sim"
	"telegraphos/internal/simtest"
	"telegraphos/internal/trace"
)

// Isolated layer drivers: each times one layer through its public API,
// with nothing else running, at a shape taken from the workloads. They
// cross-check the profile: if a layer's share moves and its driver does
// not, the change is in how the workload uses the layer, not in the
// layer's own cost.

const (
	// queueDriverDepth is campus-write's measured mean queue depth at one
	// shard (sim.queue.depth_mean in its traced run: 611).
	queueDriverDepth = 610
	// groupDriverLookahead is torus-rpc's cross-shard lookahead: the
	// default 10 ns link propagation delay.
	groupDriverLookahead = 10 * sim.Nanosecond
	// groupDriverTokens keeps about as many items per barrier round in
	// flight as torus-rpc executes at two shards.
	groupDriverTokens = 3
	// driverBudget is how long each driver repeats its measurement; the
	// reported figure is the median repeat.
	driverBudget = 300 * time.Millisecond
)

// repeatTimed runs one repeat of a driver until driverBudget has
// elapsed (at least three repeats) and returns the median ns per unit.
func repeatTimed(once func() (units int)) float64 {
	var perUnit []float64
	begin := wallNow()
	for len(perUnit) < 3 || wallNow().Sub(begin) < driverBudget {
		start := wallNow()
		units := once()
		perUnit = append(perUnit, float64(wallNow().Sub(start).Nanoseconds())/float64(units))
	}
	sort.Float64s(perUnit)
	return perUnit[len(perUnit)/2]
}

// queueDriver times the event queue: a standalone engine holding
// queueDriverDepth self-rescheduling events with link-like delays.
func queueDriver() float64 {
	const fires = 1 << 18
	delays := make([]sim.Time, 1024)
	rng := sim.NewRNG(1)
	for i := range delays {
		delays[i] = sim.Microsecond + sim.Time(rng.Intn(1000))
	}
	return repeatTimed(func() int {
		e := sim.NewEngine(1)
		fired := 0
		var fire func()
		fire = func() {
			fired++
			if fired+queueDriverDepth <= fires {
				e.Schedule(delays[fired&1023], fire) //tgvet:allow eventdrop(a driver event always fires; nothing cancels it)
			}
		}
		for i := 0; i < queueDriverDepth; i++ {
			e.Schedule(delays[i&1023], fire) //tgvet:allow eventdrop(a driver event always fires; nothing cancels it)
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
		return fired
	})
}

// procDriver times process hand-off: 64 spawned processes in a Sleep
// loop; every Sleep parks the process and wakes it again.
func procDriver() float64 {
	const procs, sleeps = 64, 500
	return repeatTimed(func() int {
		e := sim.NewEngine(1)
		for p := 0; p < procs; p++ {
			p := p
			e.Spawn(fmt.Sprintf("sleeper%d", p), func(pr *sim.Proc) {
				for k := 0; k < sleeps; k++ {
					pr.Sleep(sim.Time(1 + (p+k)%7))
				}
			})
		}
		if err := e.Run(); err != nil {
			panic(err)
		}
		return procs * sleeps
	})
}

// groupDriver times barrier rounds: a two-shard group passing tokens
// back and forth over cross-shard Chans with torus-rpc's lookahead.
func groupDriver() float64 {
	const hops = 5000
	return repeatTimed(func() int {
		g := sim.NewGroup(1, 2)
		e0, e1 := g.Shard(0), g.Shard(1)
		to1 := sim.NewChan(e0, e1, groupDriverLookahead)
		to0 := sim.NewChan(e1, e0, groupDriverLookahead)
		rounds := 0
		g.SetRoundHook(0, func(sim.Time) { rounds++ })
		for t := 0; t < groupDriverTokens; t++ {
			left := hops
			var at0, at1 func()
			at1 = func() {
				if left--; left > 0 {
					to0.Send(groupDriverLookahead, at0)
				}
			}
			at0 = func() {
				if left--; left > 0 {
					to1.Send(groupDriverLookahead, at1)
				}
			}
			to1.Send(groupDriverLookahead+sim.Time(t), at1)
		}
		if err := g.Run(); err != nil {
			panic(err)
		}
		return max(rounds, 1)
	})
}

// chaosSpill runs the first of chaos-verify's scenarios for seed that
// draws no barriers, with its trace spilled to a TGE1 file under dir,
// and reads the stream back. Barrier words are polled by spinning loads
// that the checker's windows would have to hold; simtest leaves them out
// of its checker, and a stream without them needs no such knowledge.
func chaosSpill(dir string, seed int64, sp spec) (events []trace.Event, nodes int, hash uint64, err error) {
	s := 100 * seed
	for ; ; s++ {
		if sc := simtest.ScenarioFor(s, simtest.Options{}); sc.Barriers == 0 && !stalls(sc) {
			break
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-%d.tge1", s))
	res, err := simtest.Run(s, simtest.Options{OpsPerNode: sp.ops, SpillPath: path})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("spill run: %w", err)
	}
	f, err := os.Open(path) //tgvet:allow tracesink(reads back the TGE1 spill simtest wrote, as the replay input of the trace and checker drivers)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	events, err = trace.ReadSpill(f)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("read %s: %w", path, err)
	}
	return events, res.Scenario.Nodes, res.TraceHash, nil
}

// drainEvery is how many replayed events pass between drains. simtest
// drains every 1 024 engine work items at one shard, which in
// chaos-verify is every 60 to 70 trace events; the checker's windows,
// and so its cost, depend on this cadence.
const drainEvery = 64

// traceDriver times the streaming trace pipeline: the spilled stream
// replayed through per-node WindowedLog recorders with periodic drains.
// It also reports whether the replay reproduced the run's trace hash.
func traceDriver(events []trace.Event, nodes int, want uint64) (nsPerEvent float64, sameHash bool) {
	sameHash = true
	nsPerEvent = repeatTimed(func() int {
		w := trace.NewWindowedLog(nodes, 0)
		recs := make([]func(trace.Event), nodes)
		for i := range recs {
			recs[i] = w.Recorder(i)
		}
		for i, e := range events {
			recs[e.Node](e)
			if i%drainEvery == drainEvery-1 {
				// The stream is in canonical order, so every event
				// before e's timestamp has been recorded.
				if _, err := w.Drain(e.At); err != nil {
					panic(err)
				}
			}
		}
		if _, err := w.DrainAll(); err != nil {
			panic(err)
		}
		sameHash = sameHash && w.Hash() == want
		return max(len(events), 1)
	})
	return nsPerEvent, sameHash
}

// linearizeDriver times the online linearizability and fence checker
// over the spilled stream, advancing its watermark at the same cadence.
// Like simtest, it checks linearizability only on single-copy words. It
// also reports whether the replay found the stream conforming, as the
// run's own checker did.
func linearizeDriver(events []trace.Event) (nsPerEvent float64, conforms bool) {
	locs := singleCopyLocs(events)
	conforms = true
	nsPerEvent = repeatTimed(func() int {
		o := linearize.NewOnline()
		o.RestrictLocs(locs)
		for i, e := range events {
			o.Append(e)
			if i%drainEvery == drainEvery-1 {
				o.Advance(e.At)
			}
		}
		o.Finish()
		conforms = conforms && o.Err() == nil
		return max(len(events), 1)
	})
	return nsPerEvent, conforms
}

// singleCopyLocs returns the addresses the spilled programs operated on
// whose word has one copy: reached through one node's address, applied
// on one node only, and never serialized, reflected or copied to by the
// coherence protocols. These are the words simtest restricts its checker
// to; replicated words are not meant to be linearizable.
func singleCopyLocs(events []trace.Event) map[uint64]bool {
	seenOn := map[uint64]int{}
	replicated := map[uint64]bool{}
	onOneNode := func(off uint64, node int) {
		if n, ok := seenOn[off]; ok && n != node {
			replicated[off] = true
		}
		seenOn[off] = node
	}
	for _, e := range events {
		g := addrspace.GAddr(e.Addr)
		switch e.Kind {
		case trace.EvUpdateSerialize, trace.EvReflectApply, trace.EvCopyApply:
			replicated[g.Offset()] = true
		case trace.EvWriteApply, trace.EvAtomicApply:
			onOneNode(g.Offset(), e.Node)
		case trace.EvOpInvoke:
			onOneNode(g.Offset(), int(g.Node()))
		}
	}
	locs := map[uint64]bool{}
	for _, e := range events {
		if e.Kind == trace.EvOpInvoke && !replicated[addrspace.GAddr(e.Addr).Offset()] {
			locs[e.Addr] = true
		}
	}
	return locs
}

// runDrivers runs every driver once; the trace and checker drivers
// replay the stream chaosSpill records.
func runDrivers(dir string, seed int64, sp spec, r *tracedResult) error {
	events, nodes, hash, err := chaosSpill(dir, seed, sp)
	if err != nil {
		return err
	}
	tr, same := traceDriver(events, nodes, hash)
	r.check(same, "trace driver: replaying the TGE1 spill did not reproduce the run's trace hash %#x", hash)
	lin, conforms := linearizeDriver(events)
	r.check(conforms, "linearize driver: the replayed stream has a violation the run did not report")
	r.Drivers = map[string]float64{
		"sim.queue.driver_ns_per_event": queueDriver(),
		"sim.proc.driver_ns_per_switch": procDriver(),
		"sim.group.driver_ns_per_round": groupDriver(),
		"trace.driver_ns_per_event":     tr,
		"linearize.driver_ns_per_event": lin,
	}
	return nil
}
