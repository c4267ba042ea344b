package litmus

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"telegraphos/internal/link"
	"telegraphos/internal/sim"
)

// FaultLevel is one named link-fault schedule of the sweep.
type FaultLevel struct {
	Name string
	Plan *link.FaultPlan // nil = clean network
}

// FaultLevels returns the sweep's fault schedules. The plans' own Seed
// field is filled per run.
func FaultLevels(quick bool) []FaultLevel {
	levels := []FaultLevel{
		{Name: "none"},
		{Name: "light", Plan: &link.FaultPlan{
			DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.05,
			JitterMax: 800 * sim.Nanosecond,
		}},
	}
	if !quick {
		levels = append(levels, FaultLevel{Name: "heavy", Plan: &link.FaultPlan{
			DropProb: 0.10, DupProb: 0.08, ReorderProb: 0.12,
			JitterMax: 1500 * sim.Nanosecond,
		}})
	}
	return levels
}

// SweepOptions sizes a sweep.
type SweepOptions struct {
	// Quick trims the matrix (fewer variants, no heavy faults, shards
	// {1,2}) for the tier-1 gate.
	Quick bool
	// Tests restricts the sweep to the named tests (nil = all).
	Tests map[string]bool
	// Seed offsets every run's simulation seed.
	Seed int64
	// Verbose streams each run's verdict to Out.
	Verbose bool
	// Out receives the report (nil discards it).
	Out io.Writer
}

// SelectTests parses a comma-separated list of catalog test names into
// a SweepOptions.Tests filter. An unknown or empty name is an error
// that lists the catalog.
func SelectTests(list string) (map[string]bool, error) {
	known := make(map[string]bool)
	var names []string
	for _, t := range Tests() {
		known[t.Name] = true
		names = append(names, t.Name)
	}
	sel := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("unknown test %q (known: %s)", name, strings.Join(names, ", "))
		}
		sel[name] = true
	}
	return sel, nil
}

// CellKey identifies one histogram cell.
type CellKey struct {
	Test     string
	Protocol Protocol
	Shards   int
	Faults   string
	// Comb marks the in-switch combining arm (run only for tests that
	// issue fetch&increments — combining is a no-op for the rest).
	Comb bool
	// Topo and Nodes identify a topology-sweep arm (SweepTopo); both are
	// zero in the classic star sweep.
	Topo  string
	Nodes int
}

// usesFAI reports whether the test issues any fetch&increment — the only
// operation in-switch combining transforms.
func usesFAI(t *Test) bool {
	for _, th := range t.Threads {
		for _, s := range th {
			if s.Op == FAI {
				return true
			}
		}
	}
	return false
}

// Cell accumulates one configuration's outcomes over the variant sweep.
type Cell struct {
	Runs      int
	Outcomes  map[string]int
	Forbidden int // forbidden-outcome hits (anomaly count under Galactica)
	Witnessed int
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	Cells      map[CellKey]*Cell
	Violations []string
	// MissingWitness lists test/protocol pairs whose expected anomaly
	// never showed (e.g. Galactica's 1,2,1 not reproduced).
	MissingWitness []string
	Runs           int
}

// Failed reports whether the sweep must fail the build: any conformance
// violation, or an expected anomaly that never materialized.
func (r *SweepResult) Failed() bool {
	return len(r.Violations) > 0 || len(r.MissingWitness) > 0
}

// Sweep runs the full litmus matrix: every test × protocol × shard
// count × fault schedule × timing variant, with an in-switch combining
// arm for the fetch&increment tests, on the minimal star machine. Every
// test's expected anomaly must show. Invalidate's centralized directory
// restricts it to single-shard runs.
func Sweep(opts SweepOptions) *SweepResult {
	variants := 5
	if opts.Quick {
		variants = 3
	}
	return sweep(opts, sweepPlan{
		levels:    []TopoLevel{{}},
		faults:    FaultLevels(opts.Quick),
		variants:  variants,
		combining: true,
		witnesses: true,
	})
}

// sweepPlan is what the star sweep and the topology sweep differ in.
type sweepPlan struct {
	levels    []TopoLevel // outer axis; the zero level is the star machine
	faults    []FaultLevel
	variants  int
	combining bool // add a combining arm for tests that issue fetch&inc
	witnesses bool // fail when a test's expected anomaly never shows
}

// armLabel renders the fields that name a run's topology level and
// combining arm in verdict and violation lines.
func (p *sweepPlan) armLabel(tl TopoLevel, comb bool) (where, arm string) {
	if tl.Topo != "" {
		where = fmt.Sprintf("topo=%s/%d ", tl.Topo, tl.Nodes)
	}
	if p.combining {
		arm = fmt.Sprintf("comb=%v ", comb)
	}
	return where, arm
}

// sweep runs every (selected) test × topology level × protocol × shard
// count × fault schedule × combining arm × timing variant of plan, and
// checks that trace hashes do not depend on the shard count.
func sweep(opts SweepOptions, plan sweepPlan) *SweepResult {
	shardCounts := []int{1, 2, 4}
	if opts.Quick {
		shardCounts = []int{1, 2}
	}
	protocols := []Protocol{Update, Invalidate, Galactica}

	res := &SweepResult{Cells: make(map[CellKey]*Cell)}
	witnessNeeded := make(map[string]bool) // "test/protocol" → still missing
	// Trace hashes per (everything but shards) → shard → hash, for the
	// shard-invariance check.
	type hashKey struct {
		test     string
		level    TopoLevel
		protocol Protocol
		faults   string
		variant  int
		comb     bool
	}
	hashes := make(map[hashKey]map[int]uint64)

	for _, t := range Tests() {
		if opts.Tests != nil && !opts.Tests[t.Name] {
			continue
		}
		combModes := []bool{false}
		if plan.combining && usesFAI(t) {
			combModes = append(combModes, true)
		}
		for _, tl := range plan.levels {
			for _, proto := range protocols {
				if !t.runsUnder(proto) {
					continue
				}
				if plan.witnesses && t.needsWitness(proto) {
					witnessNeeded[t.Name+"/"+proto.String()] = true
				}
				for _, shards := range shardCounts {
					if proto == Invalidate && shards > 1 {
						continue
					}
					for _, fl := range plan.faults {
						for _, comb := range combModes {
							key := CellKey{Test: t.Name, Protocol: proto, Shards: shards, Faults: fl.Name,
								Comb: comb, Topo: tl.Topo, Nodes: tl.Nodes}
							cell := res.Cells[key]
							if cell == nil {
								cell = &Cell{Outcomes: make(map[string]int)}
								res.Cells[key] = cell
							}
							where, arm := plan.armLabel(tl, comb)
							for v := 0; v < plan.variants; v++ {
								seed := opts.Seed + int64(v)*7919
								var faults *link.FaultPlan
								if fl.Plan != nil {
									p := *fl.Plan
									p.Seed = seed
									faults = &p
								}
								rr := Run(t, Config{
									Protocol:  proto,
									Shards:    shards,
									Faults:    faults,
									Combining: comb,
									Variant:   v,
									Seed:      seed,
									Topology:  tl.Topo,
									Nodes:     tl.Nodes,
								})
								res.Runs++
								cell.Runs++
								cell.Outcomes[rr.Outcome.String()]++
								if rr.Forbidden {
									cell.Forbidden++
								}
								if rr.Witnessed {
									cell.Witnessed++
									delete(witnessNeeded, t.Name+"/"+proto.String())
								}
								for _, viol := range rr.Violations {
									res.Violations = append(res.Violations,
										fmt.Sprintf("%s %sproto=%v shards=%d faults=%s %svariant=%d: %s",
											t.Name, where, proto, shards, fl.Name, arm, v, viol))
								}
								hk := hashKey{t.Name, tl, proto, fl.Name, v, comb}
								if hashes[hk] == nil {
									hashes[hk] = make(map[int]uint64)
								}
								hashes[hk][shards] = rr.TraceHash
								if opts.Verbose && opts.Out != nil {
									fmt.Fprintf(opts.Out, "  %-14s %sproto=%-10v shards=%d faults=%-5s %sv=%d → %v\n",
										t.Name, where, proto, shards, fl.Name, arm, v, rr.Outcome)
								}
							}
						}
					}
				}
			}
		}
	}

	// Shard invariance: identical configs must produce identical traces
	// regardless of shard count.
	hkeys := make([]hashKey, 0, len(hashes))
	//tgvet:allow maporder(keys are sorted by the sort.Slice below before the invariance check)
	for hk := range hashes {
		hkeys = append(hkeys, hk)
	}
	sort.Slice(hkeys, func(i, j int) bool {
		a, b := hkeys[i], hkeys[j]
		if a.test != b.test {
			return a.test < b.test
		}
		if a.level.Topo != b.level.Topo {
			return a.level.Topo < b.level.Topo
		}
		if a.level.Nodes != b.level.Nodes {
			return a.level.Nodes < b.level.Nodes
		}
		if a.protocol != b.protocol {
			return a.protocol < b.protocol
		}
		if a.faults != b.faults {
			return a.faults < b.faults
		}
		if a.variant != b.variant {
			return a.variant < b.variant
		}
		return !a.comb && b.comb
	})
	for _, hk := range hkeys {
		byShard := hashes[hk]
		var want uint64
		first := true
		for _, shards := range shardCounts {
			h, ok := byShard[shards]
			if !ok {
				continue
			}
			if first {
				want, first = h, false
				continue
			}
			if h != want {
				where, arm := plan.armLabel(hk.level, hk.comb)
				res.Violations = append(res.Violations, fmt.Sprintf(
					"shard-variance: %s %sproto=%v faults=%s %svariant=%d: trace hash differs across shard counts",
					hk.test, where, hk.protocol, hk.faults, arm, hk.variant))
				break
			}
		}
	}

	for key := range witnessNeeded {
		res.MissingWitness = append(res.MissingWitness, key)
	}
	sort.Strings(res.MissingWitness)
	return res
}

// Report renders the sweep's outcome histograms and verdicts.
func (r *SweepResult) Report(w io.Writer) {
	keys := make([]CellKey, 0, len(r.Cells))
	//tgvet:allow maporder(keys are sorted by the sort.Slice below before the report is rendered)
	for k := range r.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Test != b.Test {
			return a.Test < b.Test
		}
		if a.Topo != b.Topo {
			return a.Topo < b.Topo
		}
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.Shards != b.Shards {
			return a.Shards < b.Shards
		}
		if a.Faults != b.Faults {
			return a.Faults < b.Faults
		}
		return !a.Comb && b.Comb
	})
	lastTest := ""
	for _, k := range keys {
		if k.Test != lastTest {
			fmt.Fprintf(w, "\n%s\n", k.Test)
			lastTest = k.Test
		}
		c := r.Cells[k]
		if k.Topo != "" {
			fmt.Fprintf(w, "  topo=%s/%d", k.Topo, k.Nodes)
		}
		fmt.Fprintf(w, "  proto=%-10v shards=%d faults=%-5s runs=%d", k.Protocol, k.Shards, k.Faults, c.Runs)
		if k.Comb {
			fmt.Fprintf(w, " comb")
		}
		if c.Forbidden > 0 {
			fmt.Fprintf(w, " forbidden=%d", c.Forbidden)
		}
		fmt.Fprintln(w)
		for _, out := range sortedKeys(c.Outcomes) {
			fmt.Fprintf(w, "    %3d× [%s]\n", c.Outcomes[out], out)
		}
	}
	fmt.Fprintf(w, "\n%d runs", r.Runs)
	if len(r.Violations) > 0 {
		fmt.Fprintf(w, ", %d VIOLATIONS:\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  ✗ %s\n", v)
		}
	} else {
		fmt.Fprintf(w, ", no violations\n")
	}
	for _, m := range r.MissingWitness {
		fmt.Fprintf(w, "  ✗ expected anomaly never observed: %s\n", m)
	}
}
