package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
)

// E16: the generated-topology zoo under load. The paper's prototype is a
// handful of workstations on one switch; its §4 outlook is "hundreds of
// workstations", which needs a scalable fabric. This experiment drives
// the generated topologies (torus, fat-tree, dragonfly — each with
// table-driven deadlock-free routing over the HIB's virtual channels)
// with adversarial permutation traffic and multi-core nodes, and checks
// the shapes scale the way their literature says they must.

// topoCluster builds an n-node cluster of the named fabric with cores
// CPUs per node. Memory stays small per node (the backing store is
// lazily chunked, so large machines cost only what they touch).
func topoCluster(topo string, n, cores int) *core.Cluster {
	cfg := params.Default(n)
	cfg.Seed = baseSeed
	cfg.Topology = topo
	cfg.CoresPerNode = cores
	cfg.Sizing.MemBytes = 1 << 23 // room for one shared page per node
	cfg.Shards = shardCount
	return core.New(cfg)
}

// topoPermTime runs the half-rotation adversarial permutation — every
// node's cores store per words each into the word homed on the node
// n/2 away (all traffic crosses the bisection) — and returns the
// completion time.
func topoPermTime(topo string, n, cores, per int) sim.Time {
	c := topoCluster(topo, n, cores)
	base := make([]addrspace.VAddr, n)
	for i := 0; i < n; i++ {
		base[i] = c.AllocShared(addrspace.NodeID(i), 8)
	}
	for i := 0; i < n; i++ {
		dst := (i + n/2) % n
		for co := 0; co < cores; co++ {
			co := co
			c.SpawnCore(i, co, "perm", func(ctx *cpu.Ctx) {
				for k := 0; k < per; k++ {
					ctx.Store(base[dst], uint64(co*per+k+1))
				}
				ctx.Fence()
			})
		}
	}
	settle(c)
	return c.Eng.Now()
}

// topoReadRTT measures a remote read round trip from node 0 to the node
// n/2 away, plus the number of switches the request crosses.
func topoReadRTT(topo string, n int) (sim.Time, int) {
	c := topoCluster(topo, n, 1)
	far := n / 2
	va := c.AllocShared(addrspace.NodeID(far), 16)
	c.Nodes[far].Mem.WriteWord(c.SharedOffset(va), 99)
	hops, err := c.Net.Walk(0, addrspace.NodeID(far))
	if err != nil {
		panic(err)
	}
	var rtt sim.Time
	c.Spawn(0, "reader", func(ctx *cpu.Ctx) {
		ctx.Load(va + 8) // warm the TLB off the timed path
		t0 := ctx.Now()
		if v := ctx.Load(va); v != 99 {
			panic(fmt.Sprintf("E16: read returned %d", v))
		}
		rtt = ctx.Now() - t0
	})
	settle(c)
	return rtt, len(hops)
}

// TopoPoint is one cell of the topology sweep.
type TopoPoint struct {
	Topo    string  `json:"topo"`
	Nodes   int     `json:"nodes"`
	Cores   int     `json:"cores"`
	Hops    int     `json:"hops"`     // switches crossed on the measured route
	RTTUs   float64 `json:"rtt_us"`   // remote read round trip, µs
	PermUs  float64 `json:"perm_us"`  // half-rotation permutation completion, µs
	PerOpUs float64 `json:"perop_us"` // permutation µs per delivered write
}

// E16Topos are the fabrics of the sweep; "star" is the paper's
// single-switch baseline.
var E16Topos = []string{"star", "torus2d", "torus3d", "fattree", "dragonfly", "dragonfly-val"}

// E16Sweep measures every (topology, size, cores) cell: read RTT across
// the machine's half-diameter and adversarial-permutation completion.
// Reachable through cmd/tgbench -topo (sizes 16/64/256, cores 1/4).
func E16Sweep(topos []string, sizes, coreCounts []int, per int) []TopoPoint {
	var out []TopoPoint
	for _, topo := range topos {
		for _, n := range sizes {
			rtt, hops := topoReadRTT(topo, n)
			for _, cores := range coreCounts {
				perm := topoPermTime(topo, n, cores, per)
				ops := float64(n * cores * per)
				out = append(out, TopoPoint{
					Topo: topo, Nodes: n, Cores: cores, Hops: hops,
					RTTUs:   rtt.Micros(),
					PermUs:  perm.Micros(),
					PerOpUs: perm.Micros() / ops,
				})
			}
		}
	}
	return out
}

// FormatTopo renders the sweep as the aligned table recorded in
// EXPERIMENTS.md's E16 section.
func FormatTopo(points []TopoPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %6s %6s %5s %9s %11s %10s\n",
		"topology", "nodes", "cores", "hops", "rtt_us", "perm_us", "perop_us")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %6d %6d %5d %9.2f %11.1f %10.3f\n",
			p.Topo, p.Nodes, p.Cores, p.Hops, p.RTTUs, p.PermUs, p.PerOpUs)
	}
	return b.String()
}

// WriteTopoJSON writes the sweep as indented JSON (BENCH_topo.json).
func WriteTopoJSON(w io.Writer, points []TopoPoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(points)
}

// E16TopologyZoo is the registry-sized run: it checks the structural
// claims each topology is built on, at sizes small enough for tier-1.
func E16TopologyZoo() *Result {
	const per = 4

	// Read latency tracks hop count: the torus diameter grows with
	// sqrt(N), the fat-tree's path length stays at its fixed up/down
	// depth.
	torusRTT16, torusHops16 := topoReadRTT("torus2d", 16)
	torusRTT64, torusHops64 := topoReadRTT("torus2d", 64)
	ftRTT16, ftHops16 := topoReadRTT("fattree", 16)
	ftRTT64, ftHops64 := topoReadRTT("fattree", 64)

	// Valiant's bet: on the adversarial permutation, minimal dragonfly
	// routing funnels every packet of a group through one global trunk;
	// randomized detours spread the load.
	minT := topoPermTime("dragonfly", 64, 1, per)
	valT := topoPermTime("dragonfly-val", 64, 1, per)

	// One HIB per workstation: four cores sharing the board complete the
	// same total traffic no faster than one core issuing it alone.
	oneCore := topoPermTime("torus2d", 16, 1, 4*per)
	fourCores := topoPermTime("torus2d", 16, 4, per)

	series := stats.Series{Name: "E16: permutation time vs topology (64 nodes)", XLabel: "topology_index", YLabel: "time_us"}
	for i, topo := range E16Topos {
		series.Add(float64(i), topoPermTime(topo, 64, 1, per).Micros())
	}

	return &Result{
		ID:       "E16",
		Title:    "Topology zoo: deadlock-free fabrics under adversarial load",
		Artifact: "§4 outlook: scaling past one switch",
		Rows: []Row{
			{Name: "Torus read RTT grows with diameter (16→64 nodes)",
				Paper:    "hops ~ sqrt(N), latency follows",
				Measured: fmt.Sprintf("%d hops %.1f µs -> %d hops %.1f µs", torusHops16, torusRTT16.Micros(), torusHops64, torusRTT64.Micros()),
				Match:    torusHops64 > torusHops16 && torusRTT64 > torusRTT16},
			{Name: "Fat-tree read RTT flat across sizes (16→64 nodes)",
				Paper:    "fixed up*/down* depth",
				Measured: fmt.Sprintf("%d hops %.1f µs -> %d hops %.1f µs", ftHops16, ftRTT16.Micros(), ftHops64, ftRTT64.Micros()),
				Match:    ftHops64 == ftHops16 && ftRTT64 == ftRTT16},
			{Name: "Valiant vs minimal dragonfly, adversarial permutation",
				Paper:    "detours relieve the group-pair trunk",
				Measured: fmt.Sprintf("minimal %.1f µs vs valiant %.1f µs (%.2fx)", minT.Micros(), valT.Micros(), minT.Micros()/valT.Micros()),
				Match:    valT < minT},
			{Name: "Four cores, one HIB: same traffic, same time",
				Paper:    "the board bounds injection, not the cores",
				Measured: fmt.Sprintf("1 core %.1f µs vs 4 cores %.1f µs", oneCore.Micros(), fourCores.Micros()),
				Match:    ratio(fourCores, oneCore) > 0.8 && ratio(fourCores, oneCore) < 1.25},
		},
		Series: []stats.Series{series},
	}
}

// ratio divides two times as float.
func ratio(a, b sim.Time) float64 { return float64(a) / float64(b) }
