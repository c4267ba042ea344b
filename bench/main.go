// Command bench is the simulator's benchmark: three workloads run at 1
// and 2 shards, end-to-end host throughput, set-up time and memory from
// untraced child processes, and a per-layer ledger from a profiled run.
//
// Run it from the repository root through its build script, which keeps
// every build output inside .bench_build:
//
//	sh bench/run.sh                                  # all workloads, untraced then traced
//	sh bench/run.sh -workload torus-rpc -trace 0     # end-to-end metrics only
//	sh bench/run.sh -workload torus-rpc -trace 1     # per-layer ledger only
//	sh bench/run.sh -compare A.json B.json           # verdict per metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the metrics,
// their bounds and the layer map.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// workDir holds profiles, spill files and result files, relative to
	// the directory the benchmark runs in.
	workDir = ".bench_build"
	// minPairs is the fewest 1-/2-shard child-process pairs the end-to-end
	// phase runs, however short its time budget.
	minPairs = 2
	// minSamples is the fewest CPU samples the profiles of one shard
	// count must hold together; maxProfileRuns bounds the profiled runs
	// taken to reach it.
	minSamples     = 1000
	maxProfileRuns = 24
	// childTimeout bounds one child process.
	childTimeout = 120 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run one workload: campus-write, torus-rpc or chaos-verify (default: all three)")
	seed := fs.Int64("seed", 1, "workload seed; the programs receive only the inputs generated from it")
	seconds := fs.Float64("seconds", 0, "measure each phase of a workload for about this many seconds, in at least 2 pairs of 1- and 2-shard runs (default: run_seconds in BENCHMARK.json)")
	traceMode := fs.Int("trace", -1, "0: untraced end-to-end run only; 1: traced per-layer run only; default: both")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: -compare A.json B.json")
	out := fs.String("out", "", "result file (default: "+workDir+"/results/<workload>-seed<N>-trace<T>.json)")
	child := fs.Bool("child", false, "internal: run one measurement in this process and print it as JSON")
	shards := fs.Int("shards", 1, "internal, with -child: shard count")
	prof := fs.String("profile", "", "internal, with -child: write a CPU profile of the timed run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child {
		return runChild(*only, *seed, *shards, *prof, stdout, stderr)
	}
	def, err := loadDefinition()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(def, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *traceMode < -1 || *traceMode > 1 || *seconds < 0 {
		fs.Usage()
		return 2
	}
	if *seconds == 0 {
		*seconds = def.RunSeconds
	}
	selected := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(filepath.Join(workDir, "results"), 0o755); err != nil { //tgvet:allow tracesink(creates the benchmark work directory for profiles, spills and result files)
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out == "" {
		name := "all"
		if *only != "" {
			name = *only
		}
		mode := "both"
		if *traceMode >= 0 {
			mode = strconv.Itoa(*traceMode)
		}
		*out = filepath.Join(workDir, "results", fmt.Sprintf("%s-seed%d-trace%s.json", name, *seed, mode))
	}

	res := &resultFile{Host: probeHost(), Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadResult{}}
	rn := &runner{}
	var driverNS map[string]float64
	for _, w := range selected {
		wr := &workloadResult{}
		res.Workloads[w.name] = wr
		if *traceMode != 1 {
			if err := rn.pairs(w, *seed, minPairs, *seconds, &wr.Runs); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
		}
		if *traceMode != 0 {
			// The layer drivers are the same for every workload: they run
			// once, and their checks count with the first traced workload.
			t := &tracedResult{}
			if driverNS == nil {
				chaos, _ := workloadByName("chaos-verify")
				if err := runDrivers(workDir, *seed, chaos.full, t); err != nil {
					fmt.Fprintf(stderr, "bench: drivers: %v\n", err)
					return 1
				}
				driverNS = t.Drivers
			}
			t.Drivers = driverNS
			if err := rn.measureTraced(w, *seed, *seconds, t); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			wr.Traced = t
		}
		finish(w, *seed, w.full, wr)
		printWorkload(stdout, w, wr)
	}
	if err := writeJSON(*out, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "result file: %s\n", *out)
	line, err := summaryLine(def, res, len(selected) > 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct() {
		return 1
	}
	return 0
}

// runChild performs one measurement in this process and prints it.
func runChild(name string, seed int64, shards int, profPath string, stdout, stderr io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	o := runOpts{seed: seed, shards: shards}
	if profPath != "" {
		f, err := os.Create(profPath) //tgvet:allow tracesink(creates the CPU profile file the parent asked this child for)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		defer f.Close()
		o.profile = f
	}
	// A run error is also one of r's failed checks; the parent reports it.
	r, runErr := w.measure(w.full, o)
	if r == nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, runErr)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	r.MaxRSSMB = rss
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// runner starts the child processes of one invocation, one at a time,
// and times the reference loop (refLoop) between them: a child gets the
// mean of the timings just before and just after it, and the timing
// after one child is the one before the next.
type runner struct {
	loopS float64 // the latest reference-loop time; 0 before the first
}

// spawn runs one measurement in a fresh child process. Set-up time runs
// from just before the process starts to the child's ready stamp.
func (rn *runner) spawn(w workload, seed int64, shards int, profPath string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if rn.loopS == 0 {
		rn.loopS = refLoop()
	}
	loopBefore := rn.loopS
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-shards", strconv.Itoa(shards), "-profile", profPath}
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := wallNow()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w\n%s", args, err, stderr.String())
	}
	r := &runResult{}
	if err := json.Unmarshal(stdout.Bytes(), r); err != nil {
		return nil, fmt.Errorf("child %v: bad result: %w", args, err)
	}
	r.SetupS = float64(r.ReadyUnixNS-start.UnixNano()) / 1e9
	rn.loopS = refLoop()
	r.RefLoopS = (loopBefore + rn.loopS) / 2
	return r, nil
}

// pairs runs atLeast (at least 1) pairs of 1- and 2-shard child
// processes, alternating which goes first, then more while another pair
// is expected to end within budget seconds.
func (rn *runner) pairs(w workload, seed int64, atLeast int, budget float64, runs *[]*runResult) error {
	begin := wallNow()
	for n := 0; ; n++ {
		if n >= atLeast {
			elapsed := wallNow().Sub(begin).Seconds()
			if elapsed+elapsed/float64(n) > budget {
				return nil
			}
		}
		order := []int{1, 2}
		if n%2 == 1 {
			order = []int{2, 1}
		}
		for _, s := range order {
			r, err := rn.spawn(w, seed, s, "")
			if err != nil {
				return err
			}
			*runs = append(*runs, r)
		}
	}
}

// measureTraced is the per-layer phase, recorded into t. At each shard
// count it profiles the workload, with the round probe installed, in
// fresh processes until the profiles hold minSamples CPU samples. Then
// it runs untraced pairs, at least one, for the rest of seconds: they
// give the tracing overhead and the wall speed-up.
func (rn *runner) measureTraced(w workload, seed int64, seconds float64, t *tracedResult) error {
	begin := wallNow()
	for _, s := range []int{1, 2} {
		p := &profiledRun{ByLayer: map[string]int64{}}
		for len(p.Runs) < maxProfileRuns && p.Samples < minSamples {
			path := filepath.Join(workDir, fmt.Sprintf("%s-s%d-%d.pprof", w.name, s, len(p.Runs)))
			r, err := rn.spawn(w, seed, s, path)
			if err != nil {
				return err
			}
			data, err := os.ReadFile(path) //tgvet:allow tracesink(reads the CPU profile a child process wrote, to charge its samples to layers)
			if err != nil {
				return err
			}
			prof, err := attribute(data)
			if err != nil {
				return err
			}
			p.Runs = append(p.Runs, r)
			p.Samples += prof.samples
			for l, n := range prof.byLayer {
				p.ByLayer[l] += n
			}
		}
		t.check(p.Samples >= minSamples, "%d-shard profiles hold %d samples over %d runs, fewer than %d", s, p.Samples, len(p.Runs), minSamples)
		t.Profiles = append(t.Profiles, p)
	}
	left := seconds - wallNow().Sub(begin).Seconds()
	return rn.pairs(w, seed, 1, left, &t.Untraced)
}

// finish derives a workload's metrics from its runs and folds every
// run's checks into its tally, then checks what no single run can:
// every run, at every shard count, produced the same model fingerprint,
// and at the full size and the recorded seed it is the recorded one.
func finish(w workload, seed int64, sp spec, wr *workloadResult) {
	if len(wr.Runs) > 0 {
		wr.EndToEnd = endToEndMetrics(wr.Runs)
	}
	if wr.Traced != nil {
		wr.PerLayer = perLayerMetrics(wr.Traced)
	}
	all := allRuns(wr)
	if t := wr.Traced; t != nil {
		wr.Attempted += t.Checks
		wr.Failures = append(wr.Failures, t.Failures...)
	}
	for _, r := range all {
		wr.Attempted += r.Checks
		wr.Failures = append(wr.Failures, r.Failures...)
	}
	if len(all) == 0 {
		return
	}
	ref := all[0].Model
	for _, r := range all[1:] {
		wr.Attempted++
		if r.Model != ref {
			wr.Failures = append(wr.Failures, fmt.Sprintf("%s: %d-shard fingerprint %+v differs from %d-shard fingerprint %+v",
				w.name, r.Shards, r.Model, all[0].Shards, ref))
		}
	}
	if want, ok := recordedFingerprint(w.name, seed); ok && sp == w.full {
		wr.Attempted++
		if ref != want {
			wr.Failures = append(wr.Failures, fmt.Sprintf("%s: seed %d fingerprint %+v, recorded %+v in bench/fingerprints.json; update the file only for an intended model change",
				w.name, seed, ref, want))
		}
	}
	wr.Failed = len(wr.Failures)
}

// probeHost records the host the numbers were measured on.
func probeHost() hostInfo {
	return hostInfo{
		NumCPU:     numCPU(),
		GOMAXPROCS: gomaxprocs(),
		GoVersion:  goVersion(),
		RefSpinNS:  refSpin().Nanoseconds(),
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil { //tgvet:allow tracesink(writes the benchmark result file; no simulation runs through it)
		return fmt.Errorf("write result file: %w", err)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path) //tgvet:allow tracesink(reads a result file named on the command line for -compare)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
