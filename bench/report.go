package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hostInfo records the host a result file was measured on.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// RefSpinNS is experiments.RefSpin on this host: a fixed CPU-bound
	// loop, for reading results from two hosts side by side.
	RefSpinNS int64 `json:"ref_spin_ns"`
}

// resultFile is what one invocation writes: every per-run sample, not
// only the medians, so -compare can take quartiles.
type resultFile struct {
	Host      hostInfo                   `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *resultFile) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

type workloadResult struct {
	// Runs are the untraced end-to-end runs, one per child process.
	Runs      []*runResult  `json:"runs,omitempty"`
	Traced    *tracedResult `json:"traced,omitempty"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Failures  []string      `json:"failures,omitempty"`
	// EndToEnd and PerLayer are derived from the samples above; they are
	// stored for reading, and -compare recomputes from the samples.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]value   `json:"per_layer,omitempty"`
}

// tally counts correctness checks.
type tally struct {
	Checks   int      `json:"checks"`
	Failures []string `json:"failures,omitempty"`
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.Checks++
	if !ok {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

// tracedResult is the per-layer phase of one workload.
type tracedResult struct {
	tally
	Profiles []*profiledRun     `json:"profiles,omitempty"`
	Untraced []*runResult       `json:"untraced,omitempty"`
	Drivers  map[string]float64 `json:"drivers,omitempty"`
}

// profiledRun is the runs of one shard count under the CPU profiler,
// with their samples charged to layers and summed.
type profiledRun struct {
	Runs    []*runResult     `json:"runs"`
	Samples int64            `json:"samples"`
	ByLayer map[string]int64 `json:"samples_by_layer"`
}

func (p *profiledRun) share(layer string) float64 {
	if p.Samples == 0 {
		return 0
	}
	return float64(p.ByLayer[layer]) / float64(p.Samples)
}

// nsPer charges layer's share of the profiled wall time to units, the
// per-run count of some work.
func (p *profiledRun) nsPer(layer string, units float64) float64 {
	var wall float64
	for _, r := range p.Runs {
		wall += r.WallS
	}
	return p.share(layer) * wall * 1e9 / (units * float64(len(p.Runs)))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is an end-to-end metric over a workload's runs.
type summary struct {
	Value float64 `json:"value"` // the median
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// e2eMetric is an end-to-end metric and how to read it off one run.
type e2eMetric struct {
	name, unit string
	shards     int // 0: runs at every shard count
	of         func(*runResult) float64
}

// The host-time metrics are scaled to the reference host speed by each
// run's own hostSlowdown; the result file keeps the raw times.
var endToEnd = []e2eMetric{
	{"ops_per_s.s1", "ops/s", 1, opsPerSec},
	{"ops_per_s.s2", "ops/s", 2, opsPerSec},
	{"setup_s", "s", 0, func(r *runResult) float64 { return r.SetupS / hostSlowdown(r) }},
	{"heap_alloc_mb.s1", "MB", 1, func(r *runResult) float64 { return r.AllocMB }},
	{"heap_alloc_mb.s2", "MB", 2, func(r *runResult) float64 { return r.AllocMB }},
	{"max_rss_mb.s1", "MB", 1, func(r *runResult) float64 { return r.MaxRSSMB }},
	{"max_rss_mb.s2", "MB", 2, func(r *runResult) float64 { return r.MaxRSSMB }},
}

func opsPerSec(r *runResult) float64 { return rawOpsPerSec(r) * hostSlowdown(r) }

func rawOpsPerSec(r *runResult) float64 { return float64(r.Ops) / r.WallS }

// hostSlowdown is how much slower than on the idle recording host the
// reference loop ran around r's child process; 1 when r has no loop
// time.
func hostSlowdown(r *runResult) float64 {
	if r.RefLoopS <= 0 {
		return 1
	}
	return r.RefLoopS / refLoopS
}

func e2eByName(name string) (e2eMetric, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true
		}
	}
	return e2eMetric{}, false
}

func e2eSamples(runs []*runResult, m e2eMetric) []float64 {
	var xs []float64
	for _, r := range runs {
		if m.shards == 0 || r.Shards == m.shards {
			xs = append(xs, m.of(r))
		}
	}
	return xs
}

func summarize(xs []float64, unit string) summary {
	q := quartiles(xs)
	s := summary{Value: q[1], Q1: q[0], Q3: q[2], Unit: unit, N: len(xs)}
	if len(xs) > 0 {
		s.Min, s.Max = xs[0], xs[0]
		for _, x := range xs {
			s.Min, s.Max = min(s.Min, x), max(s.Max, x)
		}
	}
	return s
}

func endToEndMetrics(runs []*runResult) map[string]summary {
	m := map[string]summary{}
	for _, e := range endToEnd {
		if xs := e2eSamples(runs, e); len(xs) > 0 {
			m[e.name] = summarize(xs, e.unit)
		}
	}
	return m
}

// perLayerMetrics derives the ledger of a traced phase: each layer's
// share of CPU samples at each shard count, ns per workload op charged
// to it, the exact counts and round spans of the profiled runs, ns per
// unit of layer work (share × traced wall ÷ count), the drivers, the
// wall speed-up at two shards, and the tracing overhead.
func perLayerMetrics(t *tracedResult) map[string]value {
	m := map[string]value{}
	put := func(name, unit string, v float64) { m[name] = value{Value: v, Unit: unit} }
	byShards := map[int]*profiledRun{}
	for _, p := range t.Profiles {
		first := p.Runs[0]
		byShards[first.Shards] = p
		sfx := fmt.Sprintf(".s%d", first.Shards)
		put("profile.samples"+sfx, "count", float64(p.Samples))
		put("runtime.gc.cycles"+sfx, "count", float64(first.GCCycles))
		for _, l := range layers {
			put(l+".share"+sfx, "fraction", p.share(l))
			put(l+".ns_per_op"+sfx, "ns", p.nsPer(l, float64(first.Ops)))
		}
		// A count both runs report is taken from the 1-shard run (the
		// profiles are in shard order): the queue depth is sampled by work
		// items there, and the trace peaks follow its drain cadence. The
		// round counts exist at two shards only.
		for k, v := range first.Counts {
			if _, seen := m[k]; !seen {
				put(k, countUnit(k), v)
			}
		}
		for k, v := range first.Spans {
			put(k, "us", v)
		}
	}
	perUnit := func(name, layer string, shards int, count string) {
		p, c := byShards[shards], m[count].Value
		if p != nil && c > 0 {
			put(name, "ns", p.nsPer(layer, c))
		}
	}
	perUnit("sim.queue.ns_per_event", "sim.queue", 1, "sim.events")
	perUnit("sim.proc.ns_per_call", "sim.proc", 1, "sim.proc.calls")
	perUnit("sim.group.ns_per_round", "sim.group", 2, "sim.group.rounds")
	perUnit("link.ns_per_packet", "link", 1, "link.packets")
	perUnit("switchfab.ns_per_forward", "switchfab", 1, "switchfab.forwarded")
	perUnit("trace.ns_per_event", "trace", 1, "trace.events")
	perUnit("linearize.ns_per_event", "linearize", 1, "trace.events")
	for k, v := range t.Drivers {
		put(k, "ns", v)
	}
	w1 := median(e2eSamples(t.Untraced, e2eMetric{shards: 1, of: wallOf}))
	w2 := median(e2eSamples(t.Untraced, e2eMetric{shards: 2, of: wallOf}))
	if w1 > 0 && w2 > 0 {
		put("speedup.s2", "x", w1/w2)
	}
	if p := byShards[1]; p != nil && w1 > 0 {
		put("trace_overhead", "x", median(e2eSamples(p.Runs, e2eMetric{of: wallOf}))/w1)
	}
	return m
}

func wallOf(r *runResult) float64 { return r.WallS }

func countUnit(name string) string {
	if strings.HasSuffix(name, "_speedup") {
		return "x"
	}
	return "count"
}

// definition is the part of BENCHMARK.json the benchmark reads: the
// default time budget of a phase, and the metrics it must emit, their
// units and regression bounds.
type definition struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadDefinition reads BENCHMARK.json from the repository root, which is
// the current directory (bench/run.sh) or its parent (go test in bench/).
func loadDefinition() (*definition, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json")) //tgvet:allow tracesink(reads the benchmark definition, BENCHMARK.json)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		def := &definition{}
		if err := json.Unmarshal(data, def); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if def.RunSeconds <= 0 {
			return nil, fmt.Errorf("BENCHMARK.json: run_seconds is %g, want a positive number", def.RunSeconds)
		}
		if len(def.Workloads) != len(workloads) {
			return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
		}
		for i, w := range def.Workloads {
			if w.Name != workloads[i].name {
				return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
			}
		}
		return def, nil
	}
	return nil, errors.New("BENCHMARK.json not found in the current directory or its parent; run from the repository root")
}

// summaryLine renders the final output line: the metrics BENCHMARK.json
// lists, for the phases this invocation ran. With several workloads the
// metric names are prefixed "<workload>/".
func summaryLine(def *definition, res *resultFile, prefix bool) (string, error) {
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Metrics: map[string]value{}}
	for _, name := range sortedKeys(res.Workloads) {
		wr := res.Workloads[name]
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		add := func(defs []metricDef, have map[string]value) error {
			for _, d := range defs {
				v, ok := have[d.Name]
				if !ok {
					return fmt.Errorf("%s: BENCHMARK.json lists metric %q, which the benchmark did not produce", name, d.Name)
				}
				if v.Unit != d.Unit {
					return fmt.Errorf("%s: metric %q is in %s, BENCHMARK.json says %s", name, d.Name, v.Unit, d.Unit)
				}
				key := d.Name
				if prefix {
					key = name + "/" + d.Name
				}
				line.Metrics[key] = v
			}
			return nil
		}
		if len(wr.Runs) > 0 {
			medians := map[string]value{}
			for k, s := range wr.EndToEnd {
				medians[k] = value{Value: s.Value, Unit: s.Unit}
			}
			if err := add(def.EndToEnd, medians); err != nil {
				return "", err
			}
		}
		if wr.Traced != nil {
			if err := add(def.PerLayer, wr.PerLayer); err != nil {
				return "", err
			}
		}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// printWorkload writes the human-readable report of one workload.
func printWorkload(w io.Writer, wl workload, wr *workloadResult) {
	fmt.Fprintf(w, "== %s: %s\n", wl.name, wl.why)
	if len(wr.EndToEnd) > 0 {
		fmt.Fprintf(w, "  end to end (untraced; median, min–max over n child processes; spread = IQR/median)\n")
		for _, e := range endToEnd {
			s, ok := wr.EndToEnd[e.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "    %-18s %14.6g %-6s n=%-3d min %-12.6g max %-12.6g spread %5.1f%%\n",
				e.name, s.Value, s.Unit, s.N, s.Min, s.Max, 100*spread(s))
		}
		for _, shards := range []int{1, 2} {
			raw := median(e2eSamples(wr.Runs, e2eMetric{shards: shards, of: rawOpsPerSec}))
			slow := median(e2eSamples(wr.Runs, e2eMetric{shards: shards, of: hostSlowdown}))
			fmt.Fprintf(w, "    raw ops/s, %d shard(s): %.6g (unscaled; median host slowdown %.3f)\n", shards, raw, slow)
		}
	}
	if t := wr.Traced; t != nil {
		fmt.Fprintf(w, "  per-layer ledger (traced:")
		for _, p := range t.Profiles {
			fmt.Fprintf(w, " %d shard(s) %d samples in %d runs;", p.Runs[0].Shards, p.Samples, len(p.Runs))
		}
		fmt.Fprintf(w, " innermost repository frame of each stack)\n")
		fmt.Fprintf(w, "    %-14s %9s %9s %12s %12s\n", "layer", "share.s1", "share.s2", "ns_per_op.s1", "ns_per_op.s2")
		for _, l := range layers {
			fmt.Fprintf(w, "    %-14s %9.4f %9.4f %12.1f %12.1f\n", l,
				wr.PerLayer[l+".share.s1"].Value, wr.PerLayer[l+".share.s2"].Value,
				wr.PerLayer[l+".ns_per_op.s1"].Value, wr.PerLayer[l+".ns_per_op.s2"].Value)
		}
		for _, k := range sortedKeys(wr.PerLayer) {
			if strings.HasSuffix(k, ".share.s1") || strings.HasSuffix(k, ".share.s2") || strings.Contains(k, ".ns_per_op.") {
				continue // in the table above
			}
			v := wr.PerLayer[k]
			fmt.Fprintf(w, "    %-32s %14.6g %s\n", k, v.Value, v.Unit)
		}
	}
	ratio := 0.0
	if wr.Attempted > 0 {
		ratio = float64(wr.Failed) / float64(wr.Attempted)
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed, fail_ratio %g\n", wr.Attempted, wr.Failed, ratio)
	for i, f := range wr.Failures {
		if i == 10 {
			fmt.Fprintf(w, "    … %d more\n", len(wr.Failures)-i)
			break
		}
		fmt.Fprintf(w, "    FAIL %s\n", f)
	}
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

// recordedFingerprint returns the model fingerprint recorded for a
// workload at its full size, if seed is the recorded seed.
func recordedFingerprint(name string, seed int64) (fingerprint, bool) {
	var rec struct {
		Seed      int64                  `json:"seed"`
		Workloads map[string]fingerprint `json:"workloads"`
	}
	if err := json.Unmarshal(fingerprintsJSON, &rec); err != nil {
		panic(fmt.Sprintf("bench: embedded fingerprints.json: %v", err))
	}
	fp, ok := rec.Workloads[name]
	return fp, ok && seed == rec.Seed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //tgvet:allow maporder(the keys are sorted before they are returned)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
