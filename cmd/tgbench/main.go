// Command tgbench regenerates every table and figure of the paper's
// evaluation (plus the protocol-claim experiments E4–E15) and prints a
// paper-vs-measured comparison for each. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results.
//
// Usage:
//
//	tgbench                          # run everything
//	tgbench -exp E1                  # run one experiment
//	tgbench -json                    # machine-readable results
//	tgbench -list                    # list experiment ids and titles
//	tgbench -shards 4                # run the suite on 4 simulation shards
//	tgbench -pdes -out BENCH.json    # PDES node×shard scaling sweep
//	                                 # (also records BENCH.floor, the CI
//	                                 # throughput gate scripts/check.sh uses)
//	tgbench -pdes -trace-window 4096 # sweep with the streaming trace
//	                                 # pipeline attached: reports the
//	                                 # shard-invariant fingerprint and
//	                                 # peak (window-bounded) residency
//	tgbench -collscale               # paper-scale E15 barrier sweep:
//	                                 # host-side vs in-fabric, 64-1024
//	                                 # nodes (EXPERIMENTS.md table)
//	tgbench -topo -out BENCH_topo.json
//	                                 # E16 topology-zoo sweep: every
//	                                 # generated fabric × 16/64/256 nodes
//	                                 # × 1/4 cores per node, read RTT and
//	                                 # adversarial-permutation completion
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"telegraphos/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment (E1..E15)")
	list := flag.Bool("list", false, "list experiments and exit")
	asJSON := flag.Bool("json", false, "emit results as JSON")
	seed := flag.Int64("seed", 1, "deterministic base seed (same seed → bit-identical output)")
	shards := flag.Int("shards", 1, "simulation shards (results are invariant to this; only wall time changes)")
	pdes := flag.Bool("pdes", false, "run the PDES node×shard scaling sweep instead of the experiments")
	collScale := flag.Bool("collscale", false, "run the paper-scale E15 barrier sweep (host-side vs in-fabric, 64-1024 nodes) instead of the experiments")
	topo := flag.Bool("topo", false, "run the E16 topology-zoo sweep (fabrics × 16/64/256 nodes × 1/4 cores) instead of the experiments")
	out := flag.String("out", "", "with -pdes or -topo: also write the sweep report as JSON to this file (-pdes adds the throughput floor as <file>.floor)")
	traceWindow := flag.Int("trace-window", 0, "with -pdes: attach the streaming trace pipeline with this per-node ring capacity (0 = untraced); the report then includes the shard-invariant fingerprint and peak trace residency")
	flag.Parse()

	if err := checkCounts(*shards, *traceWindow); err != nil {
		fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
		os.Exit(2)
	}
	experiments.SetSeed(*seed)
	experiments.SetShards(*shards)
	experiments.SetTraceWindow(*traceWindow)

	if *collScale {
		host, fabric := experiments.E15Scale([]int{64, 128, 256, 512, 1024}, 1)
		fmt.Print(host.Format())
		fmt.Print(fabric.Format())
		return
	}

	if *topo {
		points := experiments.E16Sweep(
			experiments.E16Topos,
			[]int{16, 64, 256},
			[]int{1, 4},
			4,
		)
		fmt.Print(experiments.FormatTopo(points))
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
				os.Exit(1)
			}
			if err := experiments.WriteTopoJSON(f, points); err != nil {
				fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		return
	}

	if *pdes {
		rep := experiments.PDESSweep(
			[]int{8, 16, 32, 64},
			[]int{1, 2, 4, 8},
			experiments.PDESOps,
		)
		fmt.Print(experiments.FormatPDES(rep))
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
				os.Exit(1)
			}
			if err := experiments.WritePDESJSON(f, rep); err != nil {
				fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
			floorPath := strings.TrimSuffix(*out, ".json") + ".floor"
			if err := experiments.WriteFloor(floorPath, experiments.FloorFor(rep)); err != nil {
				fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", floorPath)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			r := experiments.Get(id)()
			fmt.Printf("%-4s %s [%s]\n", r.ID, r.Title, r.Artifact)
		}
		return
	}

	var results []*experiments.Result
	if *exp != "" {
		run := experiments.Get(*exp)
		if run == nil {
			fmt.Fprintf(os.Stderr, "tgbench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		results = append(results, run())
	} else {
		results = experiments.RunAll()
	}

	if *asJSON {
		if err := experiments.WriteJSON(os.Stdout, results); err != nil {
			fmt.Fprintf(os.Stderr, "tgbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	allOK := true
	for _, r := range results {
		fmt.Print(r.Format())
		fmt.Println()
		if !r.Ok() {
			allOK = false
		}
	}
	if !allOK {
		fmt.Println("RESULT: some experiments did not match the paper's shape")
		os.Exit(1)
	}
	fmt.Printf("RESULT: all %d experiments match the paper's shape\n", len(results))
}

// checkCounts rejects the count flags no run can honour: fewer than one
// shard, or a negative -trace-window.
func checkCounts(shards, traceWindow int) error {
	switch {
	case shards < 1:
		return fmt.Errorf("-shards %d: want 1 or more", shards)
	case traceWindow < 0:
		return fmt.Errorf("-trace-window %d: want 0 (untraced) or more", traceWindow)
	}
	return nil
}
