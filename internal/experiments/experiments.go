// Package experiments reproduces every quantitative artifact of the
// paper's evaluation and turns each qualitative protocol claim into a
// measured experiment. The experiment index (E1–E15) is documented in
// DESIGN.md; EXPERIMENTS.md records paper-vs-measured results.
//
// Each experiment is a pure function returning a Result; cmd/tgbench
// prints them and bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"telegraphos/internal/stats"
)

// baseSeed seeds every cluster and engine the experiments build. The
// whole pipeline is deterministic: two runs with the same base seed
// produce bit-identical results (determinism_test.go pins this down).
var baseSeed int64 = 1

// SetSeed overrides the base seed used by every experiment.
func SetSeed(s int64) { baseSeed = s }

// shardCount is the number of simulation shards every experiment cluster
// runs on. Results are bit-identical for any value (clusters clamp it to
// their node count); it only changes wall-clock time.
var shardCount = 1

// SetShards overrides the shard count used by every experiment cluster.
func SetShards(n int) {
	if n < 1 {
		n = 1
	}
	shardCount = n
}

// traced attaches the streaming trace pipeline (core.AttachTrace) to
// the PDES sweep clusters, so the sweep also measures recording
// overhead, the shard-invariant fingerprint, and peak trace residency.
// Off (the default) runs the sweep untraced.
var traced bool

// SetTraced turns the PDES sweep's trace pipeline on or off.
func SetTraced(on bool) { traced = on }

// Row is one paper-vs-measured comparison line.
type Row struct {
	Name     string
	Paper    string // what the paper reports (or claims)
	Measured string // what this reproduction measures
	Match    bool   // does the shape hold?
}

// Result is one experiment's outcome.
type Result struct {
	ID       string
	Title    string
	Artifact string // which table/figure/section it reproduces
	Rows     []Row
	Series   []stats.Series // parameter sweeps, if any
	Notes    string
}

// Ok reports whether every row matched.
func (r *Result) Ok() bool {
	for _, row := range r.Rows {
		if !row.Match {
			return false
		}
	}
	return true
}

// Format renders the result as text.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s  [%s]\n", r.ID, r.Title, r.Artifact)
	if len(r.Rows) > 0 {
		w := 0
		for _, row := range r.Rows {
			w = max(w, len(row.Name))
		}
		for _, row := range r.Rows {
			mark := "ok"
			if !row.Match {
				mark = "MISMATCH"
			}
			fmt.Fprintf(&b, "  %-*s  paper: %-28s measured: %-28s %s\n", w, row.Name, row.Paper, row.Measured, mark)
		}
	}
	for _, s := range r.Series {
		b.WriteString(indent(s.Format(), "  "))
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Notes)
	}
	return b.String()
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// Runner produces one experiment result.
type Runner func() *Result

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"E1":  E1Latency,
	"E2":  E2WriteBatch,
	"E3":  E3GateCount,
	"E4":  E4OwnerSerialization,
	"E5":  E5CounterAnomalies,
	"E6":  E6CounterCacheSweep,
	"E7":  E7FenceConsistency,
	"E8":  E8GalacticaAnomaly,
	"E9":  E9AlarmReplication,
	"E10": E10RemotePaging,
	"E11": E11Substrates,
	"E12": E12UpdateVsInvalidate,
	"E13": E13SwitchLoad,
	"E14": E14LaunchCost,
	"E15": E15InFabricCollectives,
	"E16": E16TopologyZoo,
}

// IDs lists experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	//tgvet:allow maporder(keys are sorted by the sort.Slice below before use)
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

// Get returns the runner for id (nil if unknown).
func Get(id string) Runner { return registry[id] }

// RunAll executes every experiment in order.
func RunAll() []*Result {
	var out []*Result
	for _, id := range IDs() {
		out = append(out, registry[id]())
	}
	return out
}
