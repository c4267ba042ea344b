package simtest

import (
	"flag"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// seedFlag replays one specific scenario: the reproducer printed for any
// failing seed is `go test ./internal/simtest -run TestSimChaos -seed=N`.
var seedFlag = flag.Int64("seed", -1, "replay a single chaos seed instead of the sweep")

// chaosSeeds is the tier-1 sweep: 50 seeded scenarios, faults on.
const chaosSeeds = 50

// runSeed executes one scenario and fails the test on any violation.
func runSeed(t *testing.T, seed int64, opts Options) *Result {
	t.Helper()
	res, err := Run(seed, opts)
	if err != nil {
		t.Fatalf("seed %d: harness error: %v", seed, err)
	}
	if res.Failed() {
		var b strings.Builder
		for _, v := range res.Violations {
			b.WriteString("\n  ")
			b.WriteString(v.String())
		}
		t.Errorf("seed %d violated %d invariants (%s):%s\n  reproduce: %s",
			seed, len(res.Violations), res.Scenario.String(), b.String(), Reproducer(seed))
	}
	return res
}

// TestSimChaos sweeps seeded chaos scenarios — random cluster shapes,
// random workloads, link faults on every scenario — and requires every
// invariant to hold on each. With -seed=N it replays just that seed.
func TestSimChaos(t *testing.T) {
	if *seedFlag >= 0 {
		res := runSeed(t, *seedFlag, Options{})
		t.Logf("seed %d: %s", *seedFlag, res.Scenario.String())
		t.Logf("trace hash %#016x over %d events, %v simulated, faults: %+v",
			res.TraceHash, res.Events, res.SimTime, res.FaultStats)
		return
	}
	for seed := int64(0); seed < chaosSeeds; seed++ {
		res := runSeed(t, seed, Options{})
		if t.Failed() {
			return
		}
		if res.Scenario.Faults != nil && res.FaultStats.Total() == 0 && res.Events > 0 {
			t.Errorf("seed %d: fault plan active but no faults fired (%s)", seed, res.Scenario.String())
		}
	}
}

// TestSimChaosClean runs a handful of fault-free control scenarios: the
// invariants must hold on a clean network too.
func TestSimChaosClean(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runSeed(t, seed, Options{NoFaults: true})
	}
}

// TestSimDeterminism runs the same seeds twice and requires byte-identical
// trace hashes — the property that makes every failure reproducible.
func TestSimDeterminism(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, err := Run(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.TraceHash != b.TraceHash || a.Events != b.Events || a.SimTime != b.SimTime {
			t.Errorf("seed %d is not deterministic: run1 (hash %#x, %d events, %v) vs run2 (hash %#x, %d events, %v)",
				seed, a.TraceHash, a.Events, a.SimTime, b.TraceHash, b.Events, b.SimTime)
		}
		if a.Events == 0 {
			t.Errorf("seed %d recorded no events", seed)
		}
	}
}

// TestShardInvariantTraceHash is the sharded engine's core determinism
// claim: the same seed produces a byte-identical trace fingerprint (and
// event count, and final simulated time) whether the cluster runs on 1,
// 2, 4, or 8 shards, with link faults on and off. Run it with -cpu 1,4 to also vary GOMAXPROCS
// (scripts/check.sh does).
func TestShardInvariantTraceHash(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 11} {
		for _, faults := range []bool{false, true} {
			base, err := Run(seed, Options{NoFaults: !faults})
			if err != nil {
				t.Fatalf("seed %d faults=%v shards=1: %v", seed, faults, err)
			}
			if base.Failed() {
				t.Fatalf("seed %d faults=%v shards=1 violated invariants: %v", seed, faults, base.Violations)
			}
			for _, shards := range []int{2, 4, 8} {
				res, err := Run(seed, Options{NoFaults: !faults, Shards: shards})
				if err != nil {
					t.Fatalf("seed %d faults=%v shards=%d: %v", seed, faults, shards, err)
				}
				if res.Failed() {
					t.Errorf("seed %d faults=%v shards=%d violated invariants: %v", seed, faults, shards, res.Violations)
				}
				if res.TraceHash != base.TraceHash || res.Events != base.Events || res.SimTime != base.SimTime {
					t.Errorf("seed %d faults=%v: shards=%d diverged: (hash %#x, %d events, %v) vs shards=1 (hash %#x, %d events, %v)",
						seed, faults, shards, res.TraceHash, res.Events, res.SimTime, base.TraceHash, base.Events, base.SimTime)
				}
				if res.FaultStats != base.FaultStats {
					t.Errorf("seed %d faults=%v: shards=%d fault stats %+v diverged from shards=1 %+v (per-link RNG streams must be shard-invariant)",
						seed, faults, shards, res.FaultStats, base.FaultStats)
				}
			}
		}
	}
}

// TestBrokenCoherenceCaught proves the checkers have teeth: with the
// deliberately broken protocol variant (reflections silently dropped on
// one replica) the sweep must report coherence violations.
func TestBrokenCoherenceCaught(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(seed, Options{BreakCoherence: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			if strings.HasPrefix(v.Invariant, "coherence") {
				caught++
				break
			}
		}
	}
	if caught < 5 {
		t.Errorf("broken coherence variant caught on only %d of 10 seeds; the checkers are too weak", caught)
	}
}

// TestStreamMatchesBatch is the pipeline differential: a retained
// EventLog tapped onto the merged stream must be in canonical order —
// nondecreasing in (At, Node); the rings are FIFO, so per-node order
// holds by construction — must carry the result's fingerprint and event
// count, and must drive the batch checkers to the online checker's
// linearizability and fence verdicts, across shard counts.
func TestStreamMatchesBatch(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 3, 5} {
		for _, shards := range []int{1, 2, 4, 8} {
			log := trace.NewEventLog()
			res, h := run(seed, Options{Shards: shards}, log)
			if res.Failed() {
				t.Errorf("violated invariants: %v", res.Violations)
			}
			evs := log.Events()
			for i := 1; i < len(evs); i++ {
				a, b := evs[i-1], evs[i]
				if a.At > b.At || (a.At == b.At && a.Node > b.Node) {
					t.Errorf("event %d (%v) precedes event %d (%v) out of (At, Node) order", i-1, a, i, b)
					break
				}
			}
			if log.Hash() != res.TraceHash || log.Len() != res.Events {
				t.Errorf("tapped stream (hash %#x, %d events) != result (hash %#x, %d events)",
					log.Hash(), log.Len(), res.TraceHash, res.Events)
			}
			if err := h.olz.AgreesWithBatch(evs); err != nil {
				t.Error(err)
			}
			if t.Failed() {
				t.Fatalf("seed %d shards=%d diverged", seed, shards)
			}
		}
	}
}

// TestQuiescenceReportsInFlight: a run cut short by its simulated-time
// budget reports, after the quiescence violation, what is still in
// flight (outstanding operations, unacknowledged frames and so on), so a
// stall report says where the run stuck, and a spill it could not write.
func TestQuiescenceReportsInFlight(t *testing.T) {
	spill := filepath.Join(t.TempDir(), "missing", "s.tge")
	res, err := Run(0, Options{SimBudget: 5 * sim.Microsecond, SpillPath: spill})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 || res.Violations[0].Invariant != "quiescence" {
		t.Fatalf("violations %v: want a quiescence violation first", res.Violations)
	}
	var got []string
	for _, v := range res.Violations[1:] {
		got = append(got, v.String())
	}
	all := strings.Join(got, "\n")
	for _, want := range []string{
		"drain: node 0 still has 2 outstanding operations",
		"drain: 5 link frames still unacknowledged",
		"spill: create: ",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("in-flight report lacks %q; got:\n%s", want, all)
		}
	}
}

// TestBoundedResidency is the bounded-memory claim: on a long run the
// peak number of undrained events in the rings stays far below the
// total event count (the windows drain as the run progresses), and the
// online checker's undecided windows stay small too.
func TestBoundedResidency(t *testing.T) {
	res := runSeed(t, 0, Options{OpsPerNode: 600})
	if res.Events < 10000 {
		t.Fatalf("long run produced only %d events; the residency bound would be vacuous", res.Events)
	}
	if res.PeakResident <= 0 || res.PeakResident*4 >= res.Events {
		t.Errorf("peak residency %d of %d events: the stream is not draining incrementally", res.PeakResident, res.Events)
	}
	if res.PeakWindow <= 0 || res.PeakWindow*4 >= res.Events {
		t.Errorf("peak undecided window %d of %d events: the checker is not deciding incrementally", res.PeakWindow, res.Events)
	}
	t.Logf("events=%d peakResident=%d peakWindow=%d", res.Events, res.PeakResident, res.PeakWindow)
}

// chaosAllocBudget is the ceiling on heap bytes allocated per program op
// over TestChaosAllocBudget's sweep. It is a ratchet: lower it when a
// change lowers allocation, and never raise it to make a change pass.
// The trace rings start small, node memory materializes 512 B leaves
// on nonzero stores only, the online checker recycles its operation and
// fence records, the HIB keeps its fixed counters in one array and
// services every packet with chained events instead of a process, the
// boards of an engine share one packet pool that recycles on faulty
// fabrics too, the link FIFOs, ARQ windows and frame records reuse
// their storage, blocking waits reuse their futures and completions,
// and switches build input pipes only for the layers their fabric
// routes on; about 1.09 KB per op remains (1.11 KB under -race). The
// largest shares are per-run set-up (links, fault injectors, switches,
// boards and engines), the generated programs and the trace rings.
const chaosAllocBudget = 1120

// TestChaosAllocBudget caps the allocation of a verification sweep —
// seeds 0–9 at 60 ops per node on one shard, faults, trace rings and
// online checkers on — at chaosAllocBudget bytes per program op.
func TestChaosAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	ops := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seed := int64(0); seed < 10; seed++ {
		res := runSeed(t, seed, Options{Shards: 1, OpsPerNode: 60})
		ops += res.Scenario.Nodes * res.Scenario.OpsPerNode
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	t.Logf("%d ops, %.0f bytes allocated per op", ops, perOp)
	if perOp > chaosAllocBudget {
		t.Errorf("%.0f bytes allocated per program op, want at most %d", perOp, chaosAllocBudget)
	}
}
