package litmus

// The topology axis of the litmus sweep: the same tests, protocols and
// checkers, but run across the generated fabrics (torus, fat-tree,
// dragonfly) on machines much larger than the tests' role counts, so
// the coherence traffic crosses multi-hop deadlock-avoiding routes
// instead of one star switch. Verdicts must not change — the memory
// model is a property of the boards and protocols, not of the wires —
// and trace hashes must stay bit-identical across shard counts.

// TopoLevel is one topology arm of the sweep.
type TopoLevel struct {
	Topo  string
	Nodes int
}

// TopoLevels returns the sweep's topology arms: every generated shape
// at 16 nodes, plus 64-node arms when quick is false.
func TopoLevels(quick bool) []TopoLevel {
	levels := []TopoLevel{
		{"torus2d", 16},
		{"fattree", 16},
		{"dragonfly", 16},
	}
	if !quick {
		levels = append(levels,
			TopoLevel{"torus2d", 64},
			TopoLevel{"torus3d", 64},
			TopoLevel{"fattree", 64},
			TopoLevel{"dragonfly", 64},
			TopoLevel{"dragonfly-val", 64},
		)
	}
	return levels
}

// SweepTopo runs the topology matrix: every (selected) test × topology
// arm × protocol × shard count, through the same loop as Sweep. Witness
// outcomes are not required here (timing anomalies are
// machine-dependent); conformance — quiescence, linearizability,
// fences, coherence, no forbidden outcomes under the Telegraphos
// protocols, shard-invariant hashes — is. Heavy faults and the
// combining arm are the star sweep's job.
func SweepTopo(opts SweepOptions) *SweepResult {
	variants := 2
	if opts.Quick {
		variants = 1
	}
	return sweep(opts, sweepPlan{
		levels:   TopoLevels(opts.Quick),
		faults:   FaultLevels(true),
		variants: variants,
	})
}
