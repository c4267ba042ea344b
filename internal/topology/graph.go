package topology

// This file holds the routing-correctness checkers over the recorded
// port-adjacency graph: table walks, all-pairs reachability, minimality
// against BFS distances, and the channel-dependency-graph acyclicity
// proof of deadlock freedom (Dally & Seitz). The checkers run in tier-1
// over every Build* shape — deadlock freedom is checked, not assumed
// (DESIGN.md §17).

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
)

// Hop is one switch traversal of a walked route: the packet arrives on
// InPort riding escape layer InLayer and departs on OutPort at OutLayer
// (as rewritten by the switch's LayerAction for the destination).
type Hop struct {
	Sw       int
	InPort   int
	OutPort  int
	InLayer  uint8
	OutLayer uint8
}

// Walk traces the routed path from src to dst through the switches'
// tables and layer rewrites, exactly as a packet would travel. It
// errors if a switch lacks a route, a hop leaves the recorded graph, a
// layer rule is violated (a layer may never decrease between two hops
// of one switch-to-switch leg), or the path exceeds the loop bound.
// Pair networks have no switches; their walk is empty.
func (n *Network) Walk(src, dst addrspace.NodeID) ([]Hop, error) {
	if int(src) >= n.NumNodes() || int(dst) >= n.NumNodes() {
		return nil, fmt.Errorf("topology: walk %d->%d outside the %d-node fabric", src, dst, n.NumNodes())
	}
	if len(n.Switches) == 0 {
		return nil, nil // back-to-back pair: no fabric to traverse
	}
	if n.nodeSw[src] < 0 || n.nodeSw[dst] < 0 {
		return nil, fmt.Errorf("topology: walk %d->%d on a fabric without recorded host ports", src, dst)
	}
	sw, in := n.nodeSw[src], n.nodePort[src]
	layer := uint8(0) // hosts inject at the escape floor
	// A deterministic loop-free route visits each switch at most once;
	// give the bound slack so the checker reports "loop" rather than
	// aborting a long-but-legal path.
	bound := 2*len(n.Switches) + 4
	var hops []Hop
	for step := 0; step <= bound; step++ {
		out, outLayer, ok := n.Switches[sw].NextHop(dst, in, layer)
		if !ok {
			return hops, fmt.Errorf("topology: switch %s has no route to node %d", n.Switches[sw].Name(), dst)
		}
		if out >= len(n.peers[sw]) {
			return hops, fmt.Errorf("topology: switch %s routes node %d out unrecorded port %d", n.Switches[sw].Name(), dst, out)
		}
		hops = append(hops, Hop{Sw: sw, InPort: in, OutPort: out, InLayer: layer, OutLayer: outLayer})
		peer := n.peers[sw][out]
		if peer.node >= 0 {
			if peer.node != int(dst) {
				return hops, fmt.Errorf("topology: route %d->%d ejects at node %d", src, dst, peer.node)
			}
			return hops, nil
		}
		if peer.sw < 0 {
			return hops, fmt.Errorf("topology: switch %s port %d is unconnected", n.Switches[sw].Name(), out)
		}
		sw, in, layer = peer.sw, peer.port, outLayer
	}
	return hops, fmt.Errorf("topology: route %d->%d exceeds %d hops (routing loop)", src, dst, bound)
}

// CheckAllPairs verifies that every ordered (src, dst) pair, self-sends
// included, has a loop-free routed path that ejects at dst.
func (n *Network) CheckAllPairs() error {
	for s := 0; s < n.NumNodes(); s++ {
		for d := 0; d < n.NumNodes(); d++ {
			if _, err := n.Walk(addrspace.NodeID(s), addrspace.NodeID(d)); err != nil {
				return err
			}
		}
	}
	return nil
}

// minDist computes BFS shortest switch-to-switch distances from every
// switch to dst's switch over the trunk graph (host ports excluded).
func (n *Network) minDist(dstSw int) []int {
	dist := make([]int, len(n.Switches))
	for i := range dist {
		dist[i] = -1
	}
	dist[dstSw] = 0
	queue := []int{dstSw}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		// Trunks are bidirectional, so "peers of s" are also the switches
		// that can reach s in one hop.
		for _, p := range n.peers[s] {
			if p.node >= 0 || p.sw < 0 {
				continue
			}
			if dist[p.sw] < 0 {
				dist[p.sw] = dist[s] + 1
				queue = append(queue, p.sw)
			}
		}
	}
	return dist
}

// CheckMinimal verifies that every routed path traverses exactly the
// BFS-minimal number of switches (shortest path src switch -> dst
// switch, plus the ejection hop). Deliberately non-minimal routings
// (Valiant dragonfly) should use CheckBounded instead.
func (n *Network) CheckMinimal() error {
	if len(n.Switches) == 0 {
		return nil
	}
	for d := 0; d < n.NumNodes(); d++ {
		dist := n.minDist(n.nodeSw[d])
		for s := 0; s < n.NumNodes(); s++ {
			hops, err := n.Walk(addrspace.NodeID(s), addrspace.NodeID(d))
			if err != nil {
				return err
			}
			want := dist[n.nodeSw[s]] + 1
			if dist[n.nodeSw[s]] < 0 {
				return fmt.Errorf("topology: switch graph disconnects node %d from node %d", s, d)
			}
			if len(hops) != want {
				return fmt.Errorf("topology: route %d->%d takes %d switch hops, minimal is %d", s, d, len(hops), want)
			}
		}
	}
	return nil
}

// CheckBounded verifies that every routed path traverses at most limit
// switches — the loop-freedom guarantee for non-minimal routings.
func (n *Network) CheckBounded(limit int) error {
	for s := 0; s < n.NumNodes(); s++ {
		for d := 0; d < n.NumNodes(); d++ {
			hops, err := n.Walk(addrspace.NodeID(s), addrspace.NodeID(d))
			if err != nil {
				return err
			}
			if len(hops) > limit {
				return fmt.Errorf("topology: route %d->%d takes %d switch hops, bound is %d", s, d, len(hops), limit)
			}
		}
	}
	return nil
}

// CheckReplyRetraces verifies that replies retrace their requests: for
// every ordered pair of distinct nodes (source, home), every switch on
// the routed path source→home also lies on the path home→source.
// In-fabric combining relies on it (switchfab/collective.go): the
// switch that merges requests must see the reply in order to split it.
// The error counts the pairs that break the property and names the
// first.
func (n *Network) CheckReplyRetraces() error {
	misses, pairs, first, err := n.retraceCensus()
	if err != nil || misses == 0 {
		return err
	}
	return fmt.Errorf("topology: %d of %d (source, home) pairs on the %s fabric route the request through a switch the reply skips; first: %s",
		misses, pairs, n.kind, first)
}

// retraceCensus walks every ordered pair of distinct nodes and counts
// the pairs whose reply path misses a switch of the request path.
func (n *Network) retraceCensus() (misses, pairs int, first string, err error) {
	onReply := make([]int, len(n.Switches)) // pair stamp: switch is on the reply path
	for s := 0; s < n.NumNodes(); s++ {
		for d := 0; d < n.NumNodes(); d++ {
			if s == d {
				continue
			}
			pairs++
			req, err := n.Walk(addrspace.NodeID(s), addrspace.NodeID(d))
			if err != nil {
				return 0, 0, "", err
			}
			rep, err := n.Walk(addrspace.NodeID(d), addrspace.NodeID(s))
			if err != nil {
				return 0, 0, "", err
			}
			for _, h := range rep {
				onReply[h.Sw] = pairs
			}
			for _, h := range req {
				if onReply[h.Sw] != pairs {
					if misses == 0 {
						first = fmt.Sprintf("%d->%d through switch %s", s, d, n.Switches[h.Sw].Name())
					}
					misses++
					break
				}
			}
		}
	}
	return misses, pairs, first, nil
}

// CheckDeadlockFree proves the fabric deadlock-free per VC class by the
// Dally/Seitz theorem: it builds the channel-dependency graph — one
// vertex per (directed wire, virtual channel), one edge per
// consecutive channel pair some realizable route holds-and-requests —
// and verifies it is acyclic. Routes are enumerated by walking every
// (src, dst) pair through the tables, so the graph contains exactly the
// dependencies deterministic routing can realize (a table entry no
// packet can reach with a given layer contributes nothing). Host
// ejection wires are always drained by the hosts, so cycles can only
// form among fabric wires; they are included anyway for completeness.
func (n *Network) CheckDeadlockFree() error {
	if len(n.Switches) == 0 {
		return nil
	}
	// Wire ids: the wire arriving at switch s's port p (host injection
	// or trunk), then one ejection wire per node.
	base := make([]int, len(n.Switches))
	wires := 0
	for s := range n.peers {
		base[s] = wires
		wires += len(n.peers[s])
	}
	eject := wires // + node id
	wires += n.NumNodes()

	chans := wires * packet.NumVCs
	adj := make([][]int32, chans)
	seen := make(map[int64]struct{})
	chanOf := func(wire int, layer uint8, class packet.VC) int32 {
		return int32(wire*packet.NumVCs + int(layer)*packet.NumClasses + int(class))
	}
	addEdge := func(from, to int32) {
		key := int64(from)*int64(chans) + int64(to)
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		adj[from] = append(adj[from], to)
	}

	for s := 0; s < n.NumNodes(); s++ {
		for d := 0; d < n.NumNodes(); d++ {
			hops, err := n.Walk(addrspace.NodeID(s), addrspace.NodeID(d))
			if err != nil {
				return err
			}
			for _, h := range hops {
				inWire := base[h.Sw] + h.InPort
				var outWire int
				peer := n.peers[h.Sw][h.OutPort]
				if peer.node >= 0 {
					outWire = eject + peer.node
				} else {
					outWire = base[peer.sw] + peer.port
				}
				for class := packet.VC(0); class < packet.NumClasses; class++ {
					addEdge(chanOf(inWire, h.InLayer, class), chanOf(outWire, h.OutLayer, class))
				}
			}
		}
	}

	// Iterative three-color DFS for a cycle.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, chans)
	type frame struct {
		v    int32
		next int
	}
	for root := 0; root < chans; root++ {
		if color[root] != white {
			continue
		}
		stack := []frame{{v: int32(root)}}
		color[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.v]) {
				w := adj[f.v][f.next]
				f.next++
				switch color[w] {
				case grey:
					return fmt.Errorf("topology: channel-dependency cycle through wire %d vc %d (%s fabric is not deadlock-free)",
						int(w)/packet.NumVCs, int(w)%packet.NumVCs, n.kind)
				case white:
					color[w] = grey
					stack = append(stack, frame{v: w})
				}
				continue
			}
			color[f.v] = black
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}
