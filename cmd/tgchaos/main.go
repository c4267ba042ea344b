// Command tgchaos is the deterministic chaos soak driver: it sweeps
// seeded simulation-test scenarios (random cluster shapes and workloads
// under link fault injection, see internal/simtest) and reports every
// invariant violation together with the one-line reproducer.
//
// Usage:
//
//	tgchaos                    # 100 seeds starting at 0, faults on
//	tgchaos -seeds 1000        # a longer soak
//	tgchaos -start 5000        # a different seed range
//	tgchaos -seed 17 -v        # replay one seed, verbose
//	tgchaos -clean             # fault-free control sweep
//	tgchaos -broken            # sanity: the broken protocol must be caught
//	tgchaos -shards 2          # sharded engine (hashes match -shards 1)
//	tgchaos -window 512        # initial trace ring capacity per node
//	tgchaos -checkpoint        # checkpoint/restore the trace state mid-run
//	                           # and require the same final hash as an
//	                           # uninterrupted run of the same seed
//
// Exit status 1 if any scenario violated an invariant, 2 on a bad flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"telegraphos/internal/simtest"
	"telegraphos/internal/stats"
)

func main() {
	seeds := flag.Int64("seeds", 100, "number of seeds to sweep")
	start := flag.Int64("start", 0, "first seed of the sweep")
	one := flag.Int64("seed", -1, "replay a single seed (overrides the sweep)")
	clean := flag.Bool("clean", false, "disable fault injection (control runs)")
	broken := flag.Bool("broken", false, "run the deliberately broken coherence variant (violations expected)")
	stop := flag.Bool("stop-on-fail", false, "stop at the first failing seed")
	verbose := flag.Bool("v", false, "print every scenario, not just failures")
	shards := flag.Int("shards", 1, "simulation shards (trace hashes are invariant to this)")
	window := flag.Int("window", 0, "initial per-node ring capacity (0 = trace.DefaultWindow); rings double when a round outpaces it")
	checkpoint := flag.Bool("checkpoint", false, "encode/decode/swap the trace state at a barrier mid-run and require the final hash to match an uninterrupted run")
	opsPerNode := flag.Int("ops", 0, "override the per-node op count of every scenario (0 = scenario default)")
	spill := flag.String("spill", "", "page the canonical merged stream to this TGE1 file (sweeps write <path>.<seed>); inspect with `tgtrace events`")
	flag.Parse()
	if err := checkCounts(*seeds, *window, *opsPerNode, *shards); err != nil {
		fmt.Fprintf(os.Stderr, "tgchaos: %v\n", err)
		os.Exit(2)
	}

	lo, hi := *start, *start+*seeds
	if *one >= 0 {
		lo, hi = *one, *one+1
		*verbose = true
	}
	if *checkpoint && *opsPerNode == 0 {
		// Scenarios must run long enough to cross a drain boundary with
		// merged output, or there is no barrier to checkpoint at.
		*opsPerNode = 150
	}

	failures := 0
	for seed := lo; seed < hi; seed++ {
		opts := simtest.Options{
			NoFaults: *clean, BreakCoherence: *broken,
			Shards: *shards, TraceWindow: *window, OpsPerNode: *opsPerNode,
		}
		if *spill != "" {
			opts.SpillPath = *spill
			if hi-lo > 1 {
				opts.SpillPath = fmt.Sprintf("%s.%d", *spill, seed)
			}
		}
		res, err := simtest.Run(seed, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tgchaos: seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		bad := res.Failed()
		if *checkpoint {
			// The checkpointed rerun must land on the identical trace.
			copts := opts
			copts.Checkpoint = true
			copts.SpillPath = "" // don't clobber the base run's spill file
			cp, err := simtest.Run(seed, copts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tgchaos: seed %d (checkpoint): %v\n", seed, err)
				os.Exit(1)
			}
			switch {
			case !cp.Checkpointed:
				fmt.Printf("seed %d: checkpoint never triggered (run too short for a drain boundary?)\n", seed)
				bad = true
			case cp.TraceHash != res.TraceHash || cp.Events != res.Events || cp.SimTime != res.SimTime:
				fmt.Printf("seed %d: CHECKPOINT DIVERGENCE restored run (hash %#016x, %d events, %v) != uninterrupted (hash %#016x, %d events, %v)\n",
					seed, cp.TraceHash, cp.Events, cp.SimTime, res.TraceHash, res.Events, res.SimTime)
				bad = true
			case *verbose:
				fmt.Printf("seed %d: checkpoint/restore reproduced hash %#016x\n", seed, cp.TraceHash)
			}
		}
		if *verbose || bad {
			fmt.Printf("%s  events=%d hash=%#016x time=%v peak-resident=%d\n",
				res.Scenario.String(), res.Events, res.TraceHash, res.SimTime, res.PeakResident)
			if res.Scenario.Faults != nil {
				fs := res.FaultStats
				fmt.Printf("  faults: dropped=%d duplicated=%d reordered=%d retransmits=%d deduped=%d\n",
					fs.Dropped, fs.Duplicated, fs.Reordered, fs.Retransmits, fs.Deduped)
			}
			if res.Scenario.FabricSync || res.Scenario.Combining {
				cs := stats.NewCounterSet()
				res.Collective.AddTo(cs)
				// Switchless topologies (pair) have no fabric counters.
				if names := cs.Names(); len(names) > 0 {
					fmt.Printf("  collectives:")
					for _, n := range names {
						fmt.Printf(" %s=%d", strings.TrimPrefix(n, "collective."), cs.Get(n))
					}
					fmt.Println()
				}
			}
		}
		if bad {
			failures++
			for _, v := range res.Violations {
				fmt.Printf("  VIOLATION %s\n", v.String())
			}
			fmt.Printf("  reproduce: %s\n", simtest.Reproducer(seed))
			if *stop {
				break
			}
		}
	}

	if failures > 0 {
		fmt.Printf("tgchaos: %d of %d scenarios violated invariants\n", failures, hi-lo)
		os.Exit(1)
	}
	fmt.Printf("tgchaos: %d scenarios clean\n", hi-lo)
}

// checkCounts rejects the count flags no sweep can honour: a negative
// -seeds, -window or -ops, or fewer than one shard.
func checkCounts(seeds int64, window, ops, shards int) error {
	switch {
	case seeds < 0:
		return fmt.Errorf("-seeds %d: want 0 or more", seeds)
	case window < 0:
		return fmt.Errorf("-window %d: want 0 (the default) or more", window)
	case ops < 0:
		return fmt.Errorf("-ops %d: want 0 (the scenario default) or more", ops)
	case shards < 1:
		return fmt.Errorf("-shards %d: want 1 or more", shards)
	}
	return nil
}
