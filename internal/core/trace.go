package core

import (
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// DefaultDrainEvery is the drain cadence AttachTrace installs: how many
// executed work items between window drains on a single shard, and in a
// multi-shard group's serial stretches. A multi-shard group also drains
// at every barrier round.
const DefaultDrainEvery = 4096

// AttachTrace wires the streaming trace pipeline into the cluster:
// every node's HIB records into its private ring of w, and the group's
// round hook drains the rings through the k-way merge at each safe
// watermark: every DefaultDrainEvery work items on a single shard and
// in a multi-shard group's serial stretches, and at every barrier
// boundary of a multi-shard group's rounds. Attach sinks to w
// before or after; they see the canonical merged stream either way.
//
// Callers that need to interpose on the drain (checkpointing harnesses)
// can re-install their own hook with c.Group.SetRoundHook afterwards.
func (c *Cluster) AttachTrace(w *trace.WindowedLog) {
	for i, n := range c.Nodes {
		n.HIB.SetRecorder(w.Recorder(i))
	}
	c.Group.SetRoundHook(DefaultDrainEvery, func(safe sim.Time) {
		w.Drain(int64(safe))
	})
}
