package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// The PDES scaling benchmark: a node-count × shard-count sweep over one
// fixed cluster workload, measuring how the sharded conservative engine
// scales. For every cell it reports wall-clock time, executed work items
// per second, and two speedups against the single-shard engine on the
// same workload:
//
//   - wall: measured wall-clock ratio — what this machine's cores
//     actually deliver;
//   - critical path: executed work divided by the round-structured
//     critical path (the busiest shard's work summed over barrier
//     rounds) — what an ideal machine with one core per shard and free
//     barriers would deliver. It is hardware-independent and isolates
//     the quality of the decomposition (lookahead width, load balance)
//     from the host's core count.
//
// The workload is a "campus" configuration: a chain of 4-port switches
// (the paper's multi-hop Telegraphos fabric) with 1 µs propagation
// links — longer runs than the 10 ns lab bench, and exactly the regime
// where conservative windows are wide enough to amortize barriers. Every
// node streams remote writes to its neighbor inside its own switch
// group with periodic fences, so traffic is mostly shard-local and the
// trunk links between switch groups carry the cross-shard coupling.

// PDESPoint is one cell of the sweep.
type PDESPoint struct {
	Nodes  int     `json:"nodes"`
	Shards int     `json:"shards"`
	WallMS float64 `json:"wall_ms"`
	Events uint64  `json:"events"`
	// EventsPerSec is the modelled work per second: executed plus elided
	// items (see PDESSweep), the same at every shard count and equal to
	// the executed items of a run that sends every credit.
	EventsPerSec float64 `json:"events_per_sec"`
	SimMicros    float64 `json:"sim_us"`
	// SpeedupWall is wall(1 shard)/wall(this) for the same node count.
	SpeedupWall float64 `json:"speedup_wall"`
	// SpeedupCritPath is events/critical-path for this cell.
	SpeedupCritPath float64 `json:"speedup_critical_path"`
	// TraceHash and the residency fields are populated only when the
	// sweep runs traced (tgbench -trace); the hash is shard-invariant and
	// TracePeak is bounded by the drain cadence, not by TraceEvents.
	TraceHash   uint64 `json:"trace_hash,omitempty"`
	TraceEvents uint64 `json:"trace_events,omitempty"`
	TracePeak   int    `json:"trace_peak_resident,omitempty"`
}

// PDESReport is the full sweep, annotated with the host's parallelism so
// wall-clock numbers can be read in context.
type PDESReport struct {
	CPUs       int         `json:"cpus"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	OpsPerNode int         `json:"ops_per_node"`
	Points     []PDESPoint `json:"points"`
}

// PDESOps is the default per-node remote-write count for the sweep.
const PDESOps = 1500

// pdesCluster builds the campus-configuration cluster for the bench.
func pdesCluster(nodes, shards int) *core.Cluster {
	cfg := params.Default(nodes)
	cfg.Seed = baseSeed
	cfg.Sizing.MemBytes = 1 << 21
	cfg.Topology = "chain"
	cfg.ChainPerSwitch = 4
	cfg.Link.PropDelay = 1 * sim.Microsecond
	cfg.Shards = shards
	return core.New(cfg)
}

// pdesTrace is the per-cell streaming trace measurement (zero when the
// sweep runs untraced).
type pdesTrace struct {
	hash   uint64
	events uint64
	peak   int
}

// pdesCell is one run of the workload.
type pdesCell struct {
	wall     time.Duration
	events   uint64 // work items executed
	elided   uint64 // reserved messages never sent (sim.Group.Elided)
	critPath uint64
	simTime  sim.Time
	trace    pdesTrace
}

// pdesRun executes the workload on nodes×shards and reports wall time,
// executed and elided work, critical path, and final simulated time.
func pdesRun(nodes, shards, ops int) (cell pdesCell) {
	c := pdesCluster(nodes, shards)
	var w *trace.WindowedLog
	if traced {
		w = trace.NewWindowedLog(nodes, 0)
		c.AttachTrace(w)
	}
	group := c.Cfg.ChainPerSwitch
	// One shared word homed on every node; node i streams writes to the
	// next node in its own switch group (wrapping inside the group).
	vas := make([]addrspace.VAddr, nodes)
	for i := 0; i < nodes; i++ {
		vas[i] = c.AllocShared(c.Nodes[i].ID, 8)
	}
	for i := 0; i < nodes; i++ {
		i := i
		partner := (i/group)*group + (i+1)%group
		if partner >= nodes {
			partner = (i / group) * group
		}
		target := vas[partner]
		c.Spawn(i, fmt.Sprintf("pdes%d", i), func(ctx *cpu.Ctx) {
			for k := 0; k < ops; k++ {
				ctx.Store(target, uint64(k+1))
				if k%64 == 63 {
					ctx.Fence()
				}
			}
			ctx.Fence()
		})
	}
	start := time.Now() //tgvet:allow walltime(PDES bench measures real host wall-clock, not simulated time)
	if err := c.Run(); err != nil {
		panic(err)
	}
	cell.wall = time.Since(start) //tgvet:allow walltime(host-side wall-clock measurement paired with the start stamp above)
	if w != nil {
		w.DrainAll()
		cell.trace = pdesTrace{hash: w.Hash(), events: w.Merged(), peak: w.MaxResident()}
	}
	g := c.Group
	cell.events, cell.elided, cell.critPath, cell.simTime = g.Executed(), g.Elided(), g.CritPath(), g.Now()
	return cell
}

// PDESSweep runs the node-count × shard-count grid. Within one node
// count every shard count must do identical work and reach the
// identical final simulated time (the determinism contract); the sweep
// panics if they diverge. The work is the executed items plus the
// elided ones: a credit that a link whose two ends share an engine never
// sent is an item a layout splitting that link executes as a message.
func PDESSweep(nodeCounts, shardCounts []int, ops int) *PDESReport {
	rep := &PDESReport{
		CPUs:       runtime.NumCPU(),      //tgvet:allow taint(host metadata for the report banner; never feeds simulation state)
		GOMAXPROCS: runtime.GOMAXPROCS(0), //tgvet:allow taint(host metadata for the report banner; never feeds simulation state)
		OpsPerNode: ops,
	}
	for _, n := range nodeCounts {
		var baseWall time.Duration
		var baseWork uint64
		var baseSim sim.Time
		var baseTrace pdesTrace
		for _, s := range shardCounts {
			if s > n {
				continue
			}
			cell := pdesRun(n, s, ops)
			wall, events, tr := cell.wall, cell.events, cell.trace
			work := events + cell.elided
			if s == shardCounts[0] {
				baseWall, baseWork, baseSim, baseTrace = wall, work, cell.simTime, tr
			} else if work != baseWork || cell.simTime != baseSim {
				panic(fmt.Sprintf("pdes: %d nodes: shards=%d did (%d items, %v) but shards=%d did (%d items, %v)",
					n, shardCounts[0], baseWork, baseSim, s, work, cell.simTime))
			} else if tr.hash != baseTrace.hash || tr.events != baseTrace.events {
				panic(fmt.Sprintf("pdes: %d nodes: trace fingerprint diverged across shards (%d shards: hash %#x over %d events; %d shards: hash %#x over %d events)",
					n, shardCounts[0], baseTrace.hash, baseTrace.events, s, tr.hash, tr.events))
			}
			rep.Points = append(rep.Points, PDESPoint{
				Nodes:           n,
				Shards:          s,
				WallMS:          float64(wall.Microseconds()) / 1e3,
				Events:          events,
				EventsPerSec:    float64(work) / wall.Seconds(),
				SimMicros:       cell.simTime.Micros(),
				SpeedupWall:     float64(baseWall) / float64(wall),
				SpeedupCritPath: float64(events) / float64(cell.critPath),
				TraceHash:       tr.hash,
				TraceEvents:     tr.events,
				TracePeak:       tr.peak,
			})
		}
	}
	return rep
}

// WritePDESJSON serializes the report (stable field order, indented).
func WritePDESJSON(w io.Writer, rep *PDESReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FormatPDES renders the sweep as an aligned text table.
func FormatPDES(rep *PDESReport) string {
	out := fmt.Sprintf("PDES scaling sweep (%d CPUs, GOMAXPROCS=%d, %d ops/node)\n",
		rep.CPUs, rep.GOMAXPROCS, rep.OpsPerNode)
	out += fmt.Sprintf("%6s %7s %10s %14s %10s %12s %10s\n",
		"nodes", "shards", "wall_ms", "events/s", "sim_us", "speedup", "critpath")
	for _, p := range rep.Points {
		out += fmt.Sprintf("%6d %7d %10.1f %14.0f %10.0f %11.2fx %9.2fx\n",
			p.Nodes, p.Shards, p.WallMS, p.EventsPerSec, p.SimMicros, p.SpeedupWall, p.SpeedupCritPath)
	}
	for _, p := range rep.Points {
		if p.TraceEvents > 0 {
			out += fmt.Sprintf("  trace %d×%d: %d events, hash %#016x, peak resident %d (window-bounded)\n",
				p.Nodes, p.Shards, p.TraceEvents, p.TraceHash, p.TracePeak)
		}
	}
	return out
}
