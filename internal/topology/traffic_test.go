package topology

// Saturation and adversarial-permutation traffic over the generated
// topologies, run to completion under chaos faults, with the per-node
// delivery-order fingerprint required to be bit-identical across shard
// counts {1, 2, 4}. Completion itself is the deadlock-freedom claim
// made operational: a routing cycle would hang the run, and the fault
// layer's ARQ keeps the wire adversarial while it tries.

import (
	"hash/fnv"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

// trafficShape names a generated topology and its spec.
type trafficShape struct {
	name string
	spec Spec
}

func trafficShapes() []trafficShape {
	return []trafficShape{
		{"torus2d-16", Spec{Kind: "torus2d", Nodes: 16}}, // 4x4
		{"torus3d-24", Spec{Kind: "torus3d", Nodes: 24}}, // 2x3x4
		{"fattree-16", Spec{Kind: "fattree", Nodes: 16}},
		{"dragonfly-16", Spec{Kind: "dragonfly", Nodes: 16}},
		{"dragonfly-val-16", Spec{Kind: "dragonfly-val", Nodes: 16}},
	}
}

// runPatternSharded drives the sends (src, dst, val triples, delivered
// per src in order) over the shape on `shards` shards and returns the
// combined delivery-order fingerprint.
func runPatternSharded(t *testing.T, sh trafficShape, shards int, faults *link.FaultPlan, sends [][3]uint64) uint64 {
	t.Helper()
	g := sim.NewGroup(1, shards)
	nn := sh.spec.Nodes
	lc := lcfg()
	lc.Faults = faults
	n := Build(sh.spec, func(i int) *sim.Engine { return g.Shard(i * shards / nn) }, lc, scfg())

	perSrc := make([][]*packet.Packet, nn)
	for _, s := range sends {
		perSrc[s[0]] = append(perSrc[s[0]], &packet.Packet{
			Type: packet.WriteReq, Src: addrspace.NodeID(s[0]), Dst: addrspace.NodeID(s[1]), Val: s[2],
		})
	}
	for _, list := range perSrc {
		sendChain(n, list)
	}
	got := make([][][2]uint64, nn) // per node, delivery order of (src, val)
	for i := 0; i < nn; i++ {
		id := addrspace.NodeID(i)
		onArrive(n, id, func(pkt *packet.Packet) {
			got[id] = append(got[id], [2]uint64{uint64(pkt.Src), pkt.Val})
		})
	}
	if err := g.Run(); err != nil {
		t.Fatalf("%s x%d shards: %v", sh.name, shards, err)
	}

	total := 0
	for i := range got {
		total += len(got[i])
	}
	if total != len(sends) {
		t.Fatalf("%s x%d shards: delivered %d of %d packets", sh.name, shards, total, len(sends))
	}
	if q := n.QueuedPackets(); q != 0 {
		t.Fatalf("%s x%d shards: %d packets still queued after quiescence", sh.name, shards, q)
	}
	if u := n.UnackedFrames(); u != 0 {
		t.Fatalf("%s x%d shards: %d ARQ frames unacked after quiescence", sh.name, shards, u)
	}
	for _, sw := range n.Switches {
		if sw.Misroutes() != 0 {
			t.Fatalf("%s x%d shards: switch %s misrouted", sh.name, shards, sw.Name())
		}
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := range got {
		for _, rec := range got[i] {
			for _, w := range []uint64{uint64(i), rec[0], rec[1]} {
				for b := 0; b < 8; b++ {
					buf[b] = byte(w >> (8 * b))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// adversarialSends builds the hardest deterministic patterns for each
// size: a half-rotation permutation (every packet crosses the bisection
// — the pattern Valiant routing exists for), a coprime-stride
// permutation, and an all-pairs saturation burst.
func adversarialSends(nn int) [][3]uint64 {
	var sends [][3]uint64
	val := uint64(1)
	for r := 0; r < 4; r++ { // half-rotation, 4 packets per source
		for s := 0; s < nn; s++ {
			d := (s + nn/2) % nn
			if d != s {
				sends = append(sends, [3]uint64{uint64(s), uint64(d), val})
				val++
			}
		}
	}
	stride := 3
	for stride < nn && nn%stride == 0 {
		stride += 2
	}
	for r := 0; r < 2; r++ { // coprime-stride permutation
		for s := 0; s < nn; s++ {
			d := (s*stride + 1) % nn
			if d != s {
				sends = append(sends, [3]uint64{uint64(s), uint64(d), val})
				val++
			}
		}
	}
	for s := 0; s < nn; s++ { // saturation: all-to-all
		for d := 0; d < nn; d++ {
			if d != s {
				sends = append(sends, [3]uint64{uint64(s), uint64(d), val})
				val++
			}
		}
	}
	return sends
}

func chaosPlan() *link.FaultPlan {
	return &link.FaultPlan{
		Seed:        7,
		DropProb:    0.02,
		DupProb:     0.01,
		ReorderProb: 0.02,
		JitterMax:   5,
	}
}

// TestAdversarialTrafficShardInvariant is the operational deadlock
// proof: adversarial permutations plus saturation run to completion on
// every generated shape under chaos faults, and the delivery
// fingerprint is bit-identical on 1, 2, and 4 shards.
func TestAdversarialTrafficShardInvariant(t *testing.T) {
	for _, sh := range trafficShapes() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			sends := adversarialSends(sh.spec.Nodes)
			base := runPatternSharded(t, sh, 1, chaosPlan(), sends)
			for _, shards := range []int{2, 4} {
				if got := runPatternSharded(t, sh, shards, chaosPlan(), sends); got != base {
					t.Fatalf("%s: fingerprint %#x on %d shards, want %#x", sh.name, got, shards, base)
				}
			}
		})
	}
}

// TestSaturationFaultFree runs the same patterns without faults; the
// fingerprints differ from the chaos run's arrival order in general,
// but delivery must again be complete and shard-invariant.
func TestSaturationFaultFree(t *testing.T) {
	for _, sh := range trafficShapes() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			sends := adversarialSends(sh.spec.Nodes)
			base := runPatternSharded(t, sh, 1, nil, sends)
			if got := runPatternSharded(t, sh, 2, nil, sends); got != base {
				t.Fatalf("%s: fingerprint %#x on 2 shards, want %#x", sh.name, got, base)
			}
		})
	}
}
