// Package topology assembles Telegraphos networks: node ports, switches,
// and the links between them, with deterministic routing tables.
//
// Build is the one entry point; a Spec names one of nine fabrics (Kinds).
// The first four mirror the configurations the paper discusses (Figure 1
// shows workstations attached to switches that are chained by ribbon
// cables):
//
//   - pair: two nodes connected back-to-back (the §3.2 testbed);
//   - star: every node on one switch;
//   - chain: several switches in a line, k nodes per switch;
//   - tree: a radix-ary tree of switches, nodes at the leaves — the
//     natural fabric for in-network collectives at 64–1024 nodes.
//
// The other five are generated shapes with cycles in their switch graph:
//
//   - torus2d, torus3d: k-ary n-cubes with dimension-order routing and
//     VC-dateline escape (torus.go);
//   - fattree: a k-ary folded Clos with up*/down* routing (fattree.go);
//   - dragonfly, dragonfly-val: the Kim et al. dragonfly with minimal or
//     Valiant routing (dragonfly.go).
//
// The paper's four shapes are cycle-free, so the two virtual channels of
// the link layer make them deadlock-free; for the generated ones
// CheckDeadlockFree (graph.go) proves it from the routing tables.
package topology

import (
	"fmt"
	"slices"
	"strings"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
)

// Kinds names every fabric Build assembles, in the order help texts list
// them.
var Kinds = []string{"pair", "star", "chain", "tree", "torus2d", "torus3d", "fattree", "dragonfly", "dragonfly-val"}

// Spec describes a fabric: its kind and size, plus the parameters only
// some kinds read.
type Spec struct {
	Kind      string // one of Kinds
	Nodes     int    // attached workstations
	PerSwitch int    // chain: nodes per switch
	Radix     int    // tree: switch fan-out
}

// Check rejects a spec Build cannot assemble: an unknown kind, fewer than
// one node, a pair of other than two nodes, a chain with fewer than one
// node per switch, a tree of radix below two, or a dragonfly larger than
// its largest class.
func (s Spec) Check() error {
	switch {
	case !slices.Contains(Kinds, s.Kind):
		return fmt.Errorf("topology: unknown fabric %q (want one of %s)", s.Kind, strings.Join(Kinds, ", "))
	case s.Nodes < 1:
		return fmt.Errorf("topology: the %s fabric needs at least 1 node, not %d", s.Kind, s.Nodes)
	case s.Kind == "pair" && s.Nodes != 2:
		return fmt.Errorf("topology: the pair fabric connects exactly 2 nodes, not %d", s.Nodes)
	case s.Kind == "chain" && s.PerSwitch < 1:
		return fmt.Errorf("topology: the chain fabric needs at least 1 node per switch, not %d", s.PerSwitch)
	case s.Kind == "tree" && s.Radix < 2:
		return fmt.Errorf("topology: the tree fabric needs radix 2 or more, not %d", s.Radix)
	case strings.HasPrefix(s.Kind, "dragonfly") && s.Nodes > maxDragonflyNodes:
		return fmt.Errorf("topology: the %s fabric supports at most %d nodes, not %d", s.Kind, maxDragonflyNodes, s.Nodes)
	}
	return nil
}

// Network is a built fabric. Node i injects packets with SendEv and
// drains packets addressed to it with TryRecv under a SetNotify hook.
type Network struct {
	toNet    []*link.Link // per node: node -> fabric
	fromNet  []*link.Link // per node: fabric -> node
	links    []*link.Link // every distinct link in the fabric (incl. trunks)
	Switches []*switchfab.Switch
	kind     string

	// Port adjacency, recorded as the builder attaches each port:
	// peers[s][p] names the far end of switch s's port p. nodeSw/nodePort
	// locate each node's host port. The routing checkers (graph.go) and the spanning-tree
	// derivation walk this graph together with the switches' tables.
	peers    [][]portPeer
	nodeSw   []int
	nodePort []int
}

// portPeer describes the far end of one switch port: a host port
// (node >= 0) or a trunk to another switch's port.
type portPeer struct {
	node     int // attached node, or -1 for a trunk
	sw, port int // peer switch and port when node < 0
}

// NumNodes reports the number of attached nodes.
func (n *Network) NumNodes() int { return len(n.toNet) }

// Kind names the fabric, one of Kinds.
func (n *Network) Kind() string { return n.kind }

// SendEv injects pkt at its source node from event context; onClear (may
// be nil) runs when the packet clears the injection wire. See
// link.Link.SendEv.
func (n *Network) SendEv(pkt *packet.Packet, onClear func()) {
	n.toNet[pkt.Src].SendEv(pkt, onClear)
}

// SetNotify registers fn to run whenever a packet addressed to node
// becomes available on vc; drain with TryRecv. See link.Link.SetNotify.
func (n *Network) SetNotify(node addrspace.NodeID, vc packet.VC, fn func()) {
	n.fromNet[node].SetNotify(vc, fn)
}

// TryRecv returns an already-arrived packet for node on vc, if any.
func (n *Network) TryRecv(node addrspace.NodeID, vc packet.VC) (*packet.Packet, bool) {
	return n.fromNet[node].TryRecv(vc)
}

// NodeEgress exposes node i's injection link (telemetry).
func (n *Network) NodeEgress(i addrspace.NodeID) *link.Link { return n.toNet[i] }

// NodeIngress exposes node i's delivery link (telemetry).
func (n *Network) NodeIngress(i addrspace.NodeID) *link.Link { return n.fromNet[i] }

// Links exposes every distinct link of the fabric, trunks included.
func (n *Network) Links() []*link.Link { return n.links }

// FaultStats aggregates fault-injection and ARQ-recovery counters over
// every distinct link of the fabric.
func (n *Network) FaultStats() link.FaultStats {
	var fs link.FaultStats
	for _, l := range n.links {
		fs.Add(l.FaultStats())
	}
	return fs
}

// UnackedFrames reports ARQ frames still awaiting acknowledgement across
// the whole fabric; a quiesced fabric must report zero.
func (n *Network) UnackedFrames() int {
	total := 0
	for _, l := range n.links {
		total += l.Unacked()
	}
	return total
}

// QueuedPackets reports delivered-but-unconsumed packets across the whole
// fabric (all links, both VCs); a quiesced fabric must report zero.
func (n *Network) QueuedPackets() int {
	total := 0
	for _, l := range n.links {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			total += l.Queued(vc)
		}
	}
	return total
}

// builder assembles one fabric: it places each switch on the engine of
// an anchor node and records every host port, trunk and link it wires.
type builder struct {
	*Network
	place func(node int) *sim.Engine
	lcfg  link.Config
	scfg  switchfab.Config
}

// Build assembles the fabric spec describes. Node i's link endpoints run
// on place(i), and every switch runs on the engine of an anchor node the
// shape picks (its first attached host; see each shape). Links whose two
// endpoints land on different engines become cross-shard links whose
// propagation delay is the group's lookahead. Build panics if spec.Check
// fails.
func Build(spec Spec, place func(node int) *sim.Engine, lcfg link.Config, scfg switchfab.Config) *Network {
	if err := spec.Check(); err != nil {
		panic(err)
	}
	b := &builder{Network: &Network{kind: spec.Kind}, place: place, lcfg: lcfg, scfg: scfg}
	switch spec.Kind {
	case "pair":
		b.pair()
	case "star":
		b.star(spec.Nodes)
	case "chain":
		b.chain(spec.Nodes, spec.PerSwitch)
	case "tree":
		b.tree(spec.Nodes, spec.Radix)
	case "torus2d":
		b.buildTorus(TorusDims(spec.Nodes, 2), true)
	case "torus3d":
		b.buildTorus(TorusDims(spec.Nodes, 3), true)
	case "fattree":
		b.fatTree(spec.Nodes)
	default: // dragonfly, dragonfly-val
		b.dragonfly(spec.Nodes, spec.Kind == "dragonfly-val")
	}
	// Only torus and dragonfly trunks rewrite escape layers.
	layers := 1
	if strings.HasPrefix(spec.Kind, "torus") || strings.HasPrefix(spec.Kind, "dragonfly") {
		layers = packet.NumLayers
	}
	for _, sw := range b.Switches {
		sw.Start(layers)
	}
	return b.Network
}

// addSwitch creates the next switch on the engine of node anchor.
func (b *builder) addSwitch(anchor int, name string) *switchfab.Switch {
	sw := switchfab.New(b.place(anchor), name, b.scfg)
	b.Switches = append(b.Switches, sw)
	b.peers = append(b.peers, nil)
	return sw
}

// attachHost connects node i to switch s with an up and a down link and
// returns the host port. Shapes attach nodes in order, 0 first.
func (b *builder) attachHost(i, s int) int {
	sw := b.Switches[s]
	ne, se := b.place(i), sw.Engine()
	up := link.NewCross(ne, se, fmt.Sprintf("n%d->%s", i, sw.Name()), b.lcfg)
	down := link.NewCross(se, ne, fmt.Sprintf("%s->n%d", sw.Name(), i), b.lcfg)
	port := sw.AttachPort(up, down)
	b.peers[s] = append(b.peers[s], portPeer{node: i, sw: -1, port: -1})
	b.nodeSw = append(b.nodeSw, s)
	b.nodePort = append(b.nodePort, port)
	b.toNet = append(b.toNet, up)
	b.fromNet = append(b.fromNet, down)
	b.links = append(b.links, up, down)
	return port
}

// addTrunk connects switches s1 and s2 with a link each way, their names
// suffixed by tag, and returns the port on each end.
func (b *builder) addTrunk(s1, s2 int, tag string) (p1, p2 int) {
	w1, w2 := b.Switches[s1], b.Switches[s2]
	fwd := link.NewCross(w1.Engine(), w2.Engine(), w1.Name()+"->"+w2.Name()+tag, b.lcfg)
	rev := link.NewCross(w2.Engine(), w1.Engine(), w2.Name()+"->"+w1.Name()+tag, b.lcfg)
	p1 = w1.AttachPort(rev, fwd)
	p2 = w2.AttachPort(fwd, rev)
	b.peers[s1] = append(b.peers[s1], portPeer{node: -1, sw: s2, port: p2})
	b.peers[s2] = append(b.peers[s2], portPeer{node: -1, sw: s1, port: p1})
	b.links = append(b.links, fwd, rev)
	return p1, p2
}

// pair connects exactly two nodes back-to-back with one link in each
// direction and no switch.
func (b *builder) pair() {
	e0, e1 := b.place(0), b.place(1)
	ab := link.NewCross(e0, e1, "n0->n1", b.lcfg)
	ba := link.NewCross(e1, e0, "n1->n0", b.lcfg)
	b.toNet = []*link.Link{ab, ba}
	b.fromNet = []*link.Link{ba, ab}
	b.links = []*link.Link{ab, ba}
}

// star attaches every node to one switch, placed with node 0.
func (b *builder) star(nnodes int) {
	sw := b.addSwitch(0, "sw0")
	for i := 0; i < nnodes; i++ {
		sw.SetRoute(addrspace.NodeID(i), b.attachHost(i, 0))
	}
}

// chain places the nodes on a line of switches, perSwitch nodes per
// switch (each placed with its first node), with bidirectional trunks
// between adjacent switches.
func (b *builder) chain(nnodes, perSwitch int) {
	nsw := (nnodes + perSwitch - 1) / perSwitch
	for s := 0; s < nsw; s++ {
		b.addSwitch(s*perSwitch, fmt.Sprintf("sw%d", s))
	}
	for i := 0; i < nnodes; i++ {
		b.attachHost(i, i/perSwitch)
	}

	// Trunks between adjacent switches.
	rightPort := make([]int, nsw) // port on switch s leading to s+1
	leftPort := make([]int, nsw)  // port on switch s leading to s-1
	for s := 0; s < nsw-1; s++ {
		rightPort[s], leftPort[s+1] = b.addTrunk(s, s+1, "")
	}

	// Deterministic routing: local nodes to their port, everything else
	// down the line toward the destination's switch.
	for s, sw := range b.Switches {
		for i := 0; i < nnodes; i++ {
			dstSw := i / perSwitch
			switch {
			case dstSw == s:
				sw.SetRoute(addrspace.NodeID(i), b.nodePort[i])
			case dstSw > s:
				sw.SetRoute(addrspace.NodeID(i), rightPort[s])
			default:
				sw.SetRoute(addrspace.NodeID(i), leftPort[s])
			}
		}
	}
}

// treeLevels reports the per-level switch counts of a radix-ary tree
// over nnodes nodes: leaves first, one root switch last.
func treeLevels(nnodes, radix int) []int {
	counts := []int{(nnodes + radix - 1) / radix}
	for counts[len(counts)-1] > 1 {
		prev := counts[len(counts)-1]
		counts = append(counts, (prev+radix-1)/radix)
	}
	return counts
}

// tree places the nodes at the leaves of a radix-ary tree of switches:
// ceil(n/radix) leaf switches with radix nodes each, then levels of
// ceil(prev/radix) switches until a single root switch. With radix 4 a
// 1024-node fabric is 5 switch levels deep, so collective traffic
// crosses O(log N) hops instead of the chain's O(N). Switches are
// numbered level-major (all leaves first, root last), and each is
// placed with the first node of its subtree.
func (b *builder) tree(nnodes, radix int) {
	counts := treeLevels(nnodes, radix)
	base := make([]int, len(counts)) // global switch index of (l, 0)
	span := radix                    // nodes covered per switch at the current level
	for l, cnt := range counts {
		base[l] = len(b.Switches)
		for i := 0; i < cnt; i++ {
			b.addSwitch(min(i*span, nnodes-1), fmt.Sprintf("sw%d.%d", l, i))
		}
		span *= radix
	}
	for i := 0; i < nnodes; i++ {
		b.attachHost(i, i/radix)
	}

	// Trunks: child (l, c) to parent (l+1, c/radix).
	upPort := make([]int, len(b.Switches))   // switch's port toward its parent
	downPort := make([]int, len(b.Switches)) // parent's port toward this switch
	for l := 0; l < len(counts)-1; l++ {
		for c := 0; c < counts[l]; c++ {
			child := base[l] + c
			upPort[child], downPort[child] = b.addTrunk(child, base[l+1]+c/radix, "")
		}
	}

	// Deterministic routing: down toward the child subtree that covers
	// the destination, else up toward the root.
	span = radix
	for l, cnt := range counts {
		for s := 0; s < cnt; s++ {
			sw := b.Switches[base[l]+s]
			lo, hi := s*span, (s+1)*span
			for i := 0; i < nnodes; i++ {
				switch {
				case i >= lo && i < hi && l == 0:
					sw.SetRoute(addrspace.NodeID(i), b.nodePort[i])
				case i >= lo && i < hi:
					sw.SetRoute(addrspace.NodeID(i), downPort[base[l-1]+i/(span/radix)])
				default:
					sw.SetRoute(addrspace.NodeID(i), upPort[base[l]+s])
				}
			}
		}
		span *= radix
	}
}

// SwitchTree pairs a switch with its role in one collective spanning
// tree (see Network.SpanningTree).
type SwitchTree struct {
	Switch *switchfab.Switch
	Plan   switchfab.TreePlan
}

// SpanningTree derives each switch's role in the collective spanning
// tree for root and participants by walking every participant's routed
// path to the root: deterministic destination routing makes the union
// of those paths an in-tree rooted at the root's host port, on cyclic
// topologies (torus, dragonfly) just as on the tree shapes. A switch's
// subtree is the set of participants whose path traverses it; each leg
// is the in-port their arrivals (host injections or a child switch's
// combined arrival) physically enter on. Switches on no path are
// omitted — no collective traffic can reach them. The construction is
// deterministic: legs come out in ascending port order and
// representatives are the smallest participant behind each port.
func (n *Network) SpanningTree(root addrspace.NodeID, participants []addrspace.NodeID) []SwitchTree {
	if len(n.Switches) == 0 {
		return nil
	}
	type acc struct {
		up     int
		expect int
		rep    int
		legRep []int // smallest participant arriving on each in-port (-1: none)
	}
	accs := make([]*acc, len(n.Switches))
	for _, p := range participants {
		if p == root {
			continue
		}
		hops, err := n.Walk(p, root)
		if err != nil {
			panic(fmt.Sprintf("topology: no routed path from participant %v to collective root %v: %v", p, root, err))
		}
		for _, h := range hops {
			a := accs[h.Sw]
			if a == nil {
				a = &acc{up: h.OutPort, rep: -1, legRep: make([]int, n.Switches[h.Sw].NumPorts())}
				for i := range a.legRep {
					a.legRep[i] = -1
				}
				accs[h.Sw] = a
			}
			a.expect++
			if a.legRep[h.InPort] < 0 || int(p) < a.legRep[h.InPort] {
				a.legRep[h.InPort] = int(p)
			}
			if a.rep < 0 || int(p) < a.rep {
				a.rep = int(p)
			}
		}
	}
	var out []SwitchTree
	for s, a := range accs {
		if a == nil {
			continue
		}
		plan := switchfab.TreePlan{UpPort: a.up, Expect: a.expect, Rep: addrspace.NodeID(a.rep)}
		for port, r := range a.legRep {
			if r >= 0 {
				plan.Legs = append(plan.Legs, switchfab.DownLeg{Port: port, Rep: addrspace.NodeID(r)})
			}
		}
		out = append(out, SwitchTree{Switch: n.Switches[s], Plan: plan})
	}
	return out
}
