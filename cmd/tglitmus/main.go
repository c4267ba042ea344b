// Command tglitmus sweeps the litmus-test catalog (internal/litmus)
// across coherence protocols, shard counts, link-fault schedules, and
// timing variants, printing per-configuration outcome histograms. Every
// run's trace is checked for linearizability of the plain-region words
// and for the §2.3.5 fence contract; forbidden outcomes under the
// Telegraphos protocols are violations, while the Galactica ring
// baseline must reproduce its §2.4 "1, 2, 1" anomaly at least once.
//
// Usage:
//
//	tglitmus                   # full matrix
//	tglitmus -quick            # trimmed matrix (the tier-1 gate)
//	tglitmus -tests SB,MP      # only the named tests
//	tglitmus -seed 7 -v        # different seeds, per-run verdict lines
//	tglitmus -topo             # topology axis: every test × generated
//	                           # fabric (torus/fat-tree/dragonfly) at
//	                           # 16–64 nodes × protocol × shard count
//
// Exit status 1 on any conformance violation or if a required anomaly
// witness never appeared; 2 on a bad flag or an unknown -tests name.
package main

import (
	"flag"
	"fmt"
	"os"

	"telegraphos/internal/litmus"
)

func main() {
	quick := flag.Bool("quick", false, "trimmed matrix: shards {1,2}, 3 variants, no heavy faults")
	tests := flag.String("tests", "", "comma-separated test names (default all)")
	seed := flag.Int64("seed", 1, "base simulation seed")
	verbose := flag.Bool("v", false, "print one line per run")
	topo := flag.Bool("topo", false, "sweep the topology axis: generated fabrics at 16–64 nodes")
	flag.Parse()

	opts := litmus.SweepOptions{Quick: *quick, Seed: *seed, Verbose: *verbose, Out: os.Stdout}
	if *tests != "" {
		sel, err := litmus.SelectTests(*tests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tglitmus: -tests: %v\n", err)
			os.Exit(2)
		}
		opts.Tests = sel
	}

	var res *litmus.SweepResult
	if *topo {
		res = litmus.SweepTopo(opts)
	} else {
		res = litmus.Sweep(opts)
	}
	res.Report(os.Stdout)
	if res.Failed() {
		fmt.Println("FAIL")
		os.Exit(1)
	}
	fmt.Println("PASS")
}
