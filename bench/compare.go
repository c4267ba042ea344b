package main

import (
	"fmt"
	"io"
	"sort"
)

// runCompare prints, per workload and metric, both result files' median
// and quartiles and one verdict per end-to-end metric: within bound,
// regressed, or unresolved when either side's spread exceeds the bound.
// Model fingerprints and model counts must match exactly; engine-work
// counts are printed side by side. It exits 1 on a regression or a
// model mismatch.
func runCompare(def *definition, pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if err := readJSON(pathB, &b); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	for _, side := range []struct {
		tag, path string
		r         *resultFile
	}{{"A", pathA, &a}, {"B", pathB, &b}} {
		h := side.r.Host
		fmt.Fprintf(stdout, "%s: %s (seed %d; %s, %d CPUs, GOMAXPROCS %d, reference spin %.1f ms)\n",
			side.tag, side.path, side.r.Seed, h.GoVersion, h.NumCPU, h.GOMAXPROCS, float64(h.RefSpinNS)/1e6)
	}
	bad := false
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		fmt.Fprintf(stdout, "== %s\n", name)
		for _, d := range def.EndToEnd {
			m, ok := e2eByName(d.Name)
			if !ok {
				continue
			}
			xa, xb := e2eSamples(wa.Runs, m), e2eSamples(wb.Runs, m)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			sa, sb := summarize(xa, d.Unit), summarize(xb, d.Unit)
			verdict := judge(d, sa, sb)
			bad = bad || verdict == "regressed"
			fmt.Fprintf(stdout, "  %-18s A %12.6g [%.6g, %.6g] n=%-3d B %12.6g [%.6g, %.6g] n=%-3d %+6.1f%%  bound %g  %s\n",
				d.Name, sa.Value, sa.Q1, sa.Q3, sa.N, sb.Value, sb.Q1, sb.Q3, sb.N,
				100*(sb.Value-sa.Value)/sa.Value, d.Bound, verdict)
		}
		if !compareCounts(stdout, wa, wb) {
			bad = true
		}
		if wa.Traced != nil && wb.Traced != nil {
			pa, pb := perLayerMetrics(wa.Traced), perLayerMetrics(wb.Traced)
			fmt.Fprintf(stdout, "  per layer (one traced phase each side; no bound)\n")
			for _, d := range def.PerLayer {
				fmt.Fprintf(stdout, "    %-32s A %12.6g B %12.6g %s\n", d.Name, pa[d.Name].Value, pb[d.Name].Value, d.Unit)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// judge gives the verdict on one end-to-end metric.
func judge(d metricDef, a, b summary) string {
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "within bound"
}

// modelCounts are the per-layer counts that are model outcomes: what the
// simulated programs and network did, fixed by the workload and its
// seed. Every other count is the engine's own work (events executed,
// queue depth, barrier rounds, trace-ring and checker-window peaks),
// which a faster engine may well lower.
var modelCounts = map[string]bool{
	"sim.proc.calls": true, "link.packets": true, "link.words": true,
	"link.retransmits": true, "link.dropped": true,
	"switchfab.forwarded": true, "trace.events": true,
}

// compareCounts checks, at each shard count, that both sides report the
// same model fingerprint and model counts, and prints the engine-work
// counts side by side without judging them.
func compareCounts(w io.Writer, a, b *workloadResult) bool {
	ra, rb := allRuns(a), allRuns(b)
	compared, mismatches := 0, 0
	for shards := 1; shards <= 2; shards++ {
		x, y := runAt(ra, shards), runAt(rb, shards)
		if x == nil || y == nil {
			continue
		}
		compared++
		if x.Model != y.Model {
			mismatches++
			fmt.Fprintf(w, "  MODEL MISMATCH %d shard(s): fingerprint A %+v, B %+v\n", shards, x.Model, y.Model)
		}
		for _, k := range sortedKeys(x.Counts) {
			v, ok := y.Counts[k]
			switch {
			case !ok:
			case !modelCounts[k]:
				fmt.Fprintf(w, "  engine work, %d shard(s): %-28s A %12.6g B %12.6g\n", shards, k, x.Counts[k], v)
			case v != x.Counts[k]:
				mismatches++
				fmt.Fprintf(w, "  MODEL MISMATCH %d shard(s): %s A %g, B %g\n", shards, k, x.Counts[k], v)
			}
		}
	}
	if compared > 0 && mismatches == 0 {
		fmt.Fprintf(w, "  model: fingerprints and model counts identical\n")
	}
	return mismatches == 0
}

// allRuns lists every run of a workload: untraced, profiled, and the
// untraced runs of the traced phase.
func allRuns(w *workloadResult) []*runResult {
	runs := append([]*runResult(nil), w.Runs...)
	if w.Traced != nil {
		for _, p := range w.Traced.Profiles {
			runs = append(runs, p.Runs...)
		}
		runs = append(runs, w.Traced.Untraced...)
	}
	return runs
}

// runAt returns the run at the given shard count with the most counts:
// a profiled run, which adds the probe's counts, when there is one.
func runAt(runs []*runResult, shards int) *runResult {
	var best *runResult
	for _, r := range runs {
		if r.Shards == shards && (best == nil || len(r.Counts) > len(best.Counts)) {
			best = r
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"). One sample is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// spread is a summary's interquartile range as a share of its median.
func spread(s summary) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}
